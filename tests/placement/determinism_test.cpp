// The genetic search's --threads determinism contract: selection draws and
// per-child mutation seeds come off the master rng sequentially before
// dispatch, so the search result is identical at any thread count. Also the
// TSan target for the shared required-capacity memo, the pooled delta
// contexts and the multi-attribute peaks memo under parallel evaluation.
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "fixtures.h"
#include "placement/consolidator.h"
#include "placement/genetic.h"
#include "placement/multi_problem.h"

namespace ropus::placement {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

GeneticConfig search_config() {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 25;
  cfg.stagnation_limit = 25;
  cfg.seed = 7;
  return cfg;
}

TEST(GeneticDeterminism, ResultIsIdenticalAtAnyThreadCount) {
  const auto fixture = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  const std::optional<Assignment> seed = fixture.problem->greedy_seed();
  ASSERT_TRUE(seed.has_value());
  const GeneticConfig cfg = search_config();

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const GeneticResult serial = genetic_search(*fixture.problem, *seed, cfg);

  for (const std::size_t threads : {2u, 8u}) {
    parallel::set_thread_count(threads);
    const GeneticResult sharded =
        genetic_search(*fixture.problem, *seed, cfg);
    EXPECT_EQ(serial.best, sharded.best) << threads << " threads";
    EXPECT_EQ(serial.evaluation.score, sharded.evaluation.score)
        << threads << " threads";
    EXPECT_EQ(serial.found_feasible, sharded.found_feasible);
    EXPECT_EQ(serial.generations, sharded.generations)
        << threads << " threads";
  }
}

TEST(GeneticDeterminism, InfeasibleStartIsAlsoThreadCountInvariant) {
  // Everything piled on server 0 forces the relief-mutation path, whose
  // draws now come from per-child streams.
  const auto fixture =
      testing::flat_problem({4.0, 4.0, 3.0, 3.0, 2.0, 2.0}, 4);
  const Assignment pile(fixture.demands.size(), 0);
  const GeneticConfig cfg = search_config();

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const GeneticResult serial = genetic_search(*fixture.problem, pile, cfg);
  parallel::set_thread_count(8);
  const GeneticResult sharded = genetic_search(*fixture.problem, pile, cfg);
  EXPECT_EQ(serial.best, sharded.best);
  EXPECT_EQ(serial.generations, sharded.generations);
}

TEST(GeneticDeterminism, MultiAttributeIsThreadCountInvariant) {
  // Memory binds before CPU here, so the search leans on both the inner
  // problem's pooled contexts and the attribute memo from every worker.
  const auto cpu = testing::flat_problem(
      {3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5, 0.5}, 6);
  std::vector<qos::WorkloadAllocations> workloads;
  for (std::size_t i = 0; i < cpu.allocations.size(); ++i) {
    qos::WorkloadAllocations w(cpu.allocations[i]);
    const double gib = 6.0 + 4.0 * static_cast<double>(i % 4);
    w.set_attribute(trace::Attribute::kMemoryGb,
                    trace::DemandTrace(
                        testing::workload_name(i), cpu.demands[i].calendar(),
                        std::vector<double>(cpu.demands[i].size(), gib)));
    workloads.push_back(std::move(w));
  }
  sim::MultiServerSpec archetype;
  archetype.name = "srv";
  archetype.memory_gb = 40.0;
  const MultiPlacementProblem problem(
      workloads, sim::homogeneous_multi_pool(6, archetype), cpu.cos2);
  ConsolidationConfig cfg;
  cfg.genetic = search_config();

  const ThreadCountGuard guard;
  parallel::set_thread_count(1);
  const ConsolidationReport serial = consolidate(problem, cfg);
  ASSERT_TRUE(serial.feasible);
  for (const std::size_t threads : {2u, 8u}) {
    parallel::set_thread_count(threads);
    const ConsolidationReport sharded = consolidate(problem, cfg);
    EXPECT_EQ(serial.assignment, sharded.assignment) << threads << " threads";
    EXPECT_EQ(serial.evaluation.score, sharded.evaluation.score)
        << threads << " threads";
    EXPECT_EQ(serial.feasible, sharded.feasible);
    EXPECT_EQ(serial.servers_used, sharded.servers_used);
    EXPECT_EQ(serial.total_required_capacity, sharded.total_required_capacity);
    EXPECT_EQ(serial.generations, sharded.generations)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ropus::placement
