// Multi-attribute placement: memory pressure must change placements even
// when CPU alone would pack tighter.
#include "placement/multi_problem.h"

#include <gtest/gtest.h>

#include <vector>

#include "placement/consolidator.h"
#include "placement/problem.h"

namespace ropus::placement {
namespace {

using trace::Attribute;
using trace::Calendar;
using trace::DemandTrace;

Calendar tiny() { return Calendar(1, 720); }

qos::Requirement flat_req() {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = 100.0;
  return r;
}

struct Fixture {
  std::vector<qos::WorkloadAllocations> workloads;
  qos::CosCommitment cos2{1.0, 10080.0};
  std::unique_ptr<MultiPlacementProblem> problem;
};

/// Workload i has flat CPU demand cpus[i] (allocation 2x) and flat memory
/// demand mem[i] GiB.
Fixture make_fixture(const std::vector<double>& cpus,
                     const std::vector<double>& mem, std::size_t servers,
                     std::size_t server_cpus, double server_mem) {
  Fixture f;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::string name = "w";
    name += std::to_string(i);
    const DemandTrace cpu(name, tiny(),
                          std::vector<double>(tiny().size(), cpus[i]));
    qos::WorkloadAllocations w(
        qos::AllocationTrace(cpu, qos::translate(cpu, flat_req(), f.cos2)));
    w.set_attribute(Attribute::kMemoryGb,
                    DemandTrace(name + "/mem", tiny(),
                                std::vector<double>(tiny().size(), mem[i])));
    f.workloads.push_back(std::move(w));
  }
  sim::MultiServerSpec archetype;
  archetype.name = "srv";
  archetype.cpus = server_cpus;
  archetype.memory_gb = server_mem;
  f.problem = std::make_unique<MultiPlacementProblem>(
      f.workloads, sim::homogeneous_multi_pool(servers, archetype), f.cos2);
  return f;
}

GeneticConfig fast_config() {
  GeneticConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 60;
  cfg.stagnation_limit = 15;
  return cfg;
}

TEST(MultiProblem, MemoryPressureForcesSpread) {
  // Four workloads: 1 CPU demand (2 CPUs allocation) + 24 GiB each.
  // CPU-wise all four fit one 16-way server (8 CPUs); memory-wise a
  // 64-GiB server holds only two.
  auto f = make_fixture({1, 1, 1, 1}, {24, 24, 24, 24}, 4, 16, 64.0);
  const PlacementEvaluation packed = f.problem->evaluate({0, 0, 0, 0});
  EXPECT_FALSE(packed.feasible);
  const PlacementEvaluation pairs = f.problem->evaluate({0, 0, 1, 1});
  EXPECT_TRUE(pairs.feasible);
  EXPECT_EQ(pairs.servers_used, 2u);
}

TEST(MultiProblem, GreedySeedRespectsMemory) {
  auto f = make_fixture({1, 1, 1, 1}, {24, 24, 24, 24}, 4, 16, 64.0);
  const auto seed = f.problem->greedy_seed();
  ASSERT_TRUE(seed.has_value());
  const PlacementEvaluation ev = f.problem->evaluate(*seed);
  EXPECT_TRUE(ev.feasible);
  EXPECT_EQ(ev.servers_used, 2u);
}

TEST(MultiProblem, ConsolidateFindsMemoryAwarePacking) {
  auto f = make_fixture({1, 1, 1, 1, 1, 1}, {24, 24, 24, 8, 8, 8}, 6, 16,
                        64.0);
  ConsolidationConfig cfg;
  cfg.genetic = fast_config();
  const ConsolidationReport report = consolidate(*f.problem, cfg);
  ASSERT_TRUE(report.feasible);
  // 96 GiB total memory needs >= 2 servers of 64 GiB; CPU (12) fits one.
  EXPECT_GE(report.servers_used, 2u);
  EXPECT_LE(report.servers_used, 3u);
}

TEST(MultiProblem, UtilizationUsesTightestAttribute) {
  // One workload: tiny CPU (0.5 -> 1 CPU of 16 = 6%), huge memory
  // (60 of 64 GiB = 94%). The server's scoring utilization must reflect
  // memory, not CPU.
  auto f = make_fixture({0.5}, {60.0}, 1, 16, 64.0);
  const PlacementEvaluation ev = f.problem->evaluate({0});
  ASSERT_TRUE(ev.servers[0].fits);
  EXPECT_GT(ev.servers[0].utilization, 0.9);
}

TEST(MultiProblem, CpuOnlyMatchesSingleAttributeSemantics) {
  // Without memory demand, required CPU matches the flat expectation
  // (2x demand at U_low = 0.5, theta = 1).
  auto f = make_fixture({3.0}, {0.0}, 1, 16, 64.0);
  const sim::MultiRequiredCapacity rc = f.problem->server_required_capacity(
      {0}, f.problem->servers()[0]);
  ASSERT_TRUE(rc.fits);
  EXPECT_NEAR(rc.cpu.capacity, 6.0, 0.1);
}

TEST(MultiProblem, WorksThroughGenericConsolidateInterface) {
  auto f = make_fixture({2, 2, 2}, {10, 10, 10}, 3, 16, 64.0);
  ConsolidationConfig cfg;
  cfg.genetic = fast_config();
  const PlacementModel& model = *f.problem;  // through the interface
  const ConsolidationReport report = consolidate(model, cfg);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.servers_used, 1u);  // 12 CPUs + 30 GiB fit one server
  EXPECT_NEAR(report.total_peak_allocation, 12.0, 1e-6);
}


TEST(MultiProblem, NoAttributesMatchesCpuOnlyProblem) {
  // Differential check: with no non-CPU demand attached, the multi-
  // attribute model and the CPU-only model must agree on feasibility,
  // required capacity, and score for any assignment.
  auto f = make_fixture({2.0, 5.0, 3.0, 1.0}, {0.0, 0.0, 0.0, 0.0}, 4, 16,
                        64.0);
  std::vector<qos::AllocationTrace> cpu_only;
  for (const auto& w : f.workloads) cpu_only.push_back(w.cpu());
  const PlacementProblem cpu_problem(
      cpu_only, sim::homogeneous_pool(4, 16), f.cos2);

  const std::vector<Assignment> assignments{
      {0, 0, 0, 0}, {0, 1, 2, 3}, {0, 0, 1, 1}, {3, 2, 1, 0}};
  for (const Assignment& a : assignments) {
    const PlacementEvaluation multi = f.problem->evaluate(a);
    const PlacementEvaluation single = cpu_problem.evaluate(a);
    ASSERT_EQ(multi.feasible, single.feasible);
    ASSERT_EQ(multi.servers_used, single.servers_used);
    EXPECT_NEAR(multi.total_required_capacity,
                single.total_required_capacity, 0.11);
    EXPECT_NEAR(multi.score, single.score, 0.05);
  }
}

}  // namespace
}  // namespace ropus::placement
