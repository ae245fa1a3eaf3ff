// Multi-attribute placement: memory pressure must change placements even
// when CPU alone would pack tighter. Every evaluation is also checked bit
// for bit against an oracle this file builds from sim::required_capacity
// over sim::aggregate_workloads plus ascending-id attribute sums.
#include "placement/multi_problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fixtures.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "sim/simulator.h"
#include "slo/kernel.h"
#include "workload/fleet.h"

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

/// Workload i has flat CPU demand cpus[i] (allocation 2x) and, unless
/// `attach_memory` is false, flat memory demand mem[i] GiB.
Fixture make_fixture(const std::vector<double>& cpus,
                     const std::vector<double>& mem, std::size_t servers,
                     std::size_t server_cpus, double server_mem,
                     bool attach_memory = true) {
  Fixture f;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::string name = "w";
    name += std::to_string(i);
    const DemandTrace cpu(name, tiny(),
                          std::vector<double>(tiny().size(), cpus[i]));
    qos::WorkloadAllocations w(
        qos::AllocationTrace(cpu, qos::translate(cpu, flat_req(), f.cos2)));
    if (attach_memory) {
      w.set_attribute(Attribute::kMemoryGb,
                      DemandTrace(name + "/mem", tiny(),
                                  std::vector<double>(tiny().size(), mem[i])));
    }
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

using testing::expect_same_evaluation;

/// The oracle for one used server hosting ascending `ids`: a cold CPU
/// search over a freshly built aggregate, attribute sums in ascending id
/// order, and the Section VI-B score on the tightest attribute.
void oracle_server(const MultiPlacementProblem& problem,
                   const sim::MultiServerSpec& spec,
                   const qos::CosCommitment& cos2, ServerEvaluation& se,
                   PlacementEvaluation& ev) {
  const std::span<const qos::WorkloadAllocations> ws = problem.workloads();
  std::vector<const qos::AllocationTrace*> cpu;
  for (const std::size_t id : se.workloads) cpu.push_back(&ws[id].cpu());
  const sim::RequiredCapacity rc = sim::required_capacity(
      sim::aggregate_workloads(cpu, ws[0].calendar()),
      spec.capacity(Attribute::kCpu), cos2);
  bool fits = rc.fits;
  double u = rc.capacity / spec.capacity(Attribute::kCpu);
  for (const Attribute a : trace::kAllAttributes) {
    if (a == Attribute::kCpu) continue;
    std::vector<double> total(ws[0].calendar().size(), 0.0);
    for (const std::size_t id : se.workloads) {
      if (const trace::DemandTrace* t = ws[id].attribute(a)) {
        for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*t)[i];
      }
    }
    const double peak = *std::max_element(total.begin(), total.end());
    fits = fits && peak <= spec.capacity(a) + slo::kCapacityEps;
    if (spec.capacity(a) > 0.0) u = std::max(u, peak / spec.capacity(a));
  }
  se.used = true;
  ev.servers_used += 1;
  se.fits = fits;
  if (!fits) {
    ev.feasible = false;
    se.score = -static_cast<double>(se.workloads.size());
    return;
  }
  se.required_capacity = rc.capacity;
  se.utilization = std::min(1.0, u);
  se.score = PlacementProblem::utilization_score(se.utilization, spec.cpus);
  ev.total_required_capacity += rc.capacity;
}

PlacementEvaluation oracle_evaluate(const MultiPlacementProblem& problem,
                                    const qos::CosCommitment& cos2,
                                    const Assignment& a) {
  PlacementEvaluation ev;
  ev.feasible = true;
  ev.servers.resize(problem.server_count());
  const auto by_server = workloads_by_server(a, problem.server_count());
  for (std::size_t s = 0; s < problem.server_count(); ++s) {
    ServerEvaluation& se = ev.servers[s];
    se.workloads = by_server[s];
    if (se.workloads.empty()) {
      se.score = 1.0;
    } else {
      oracle_server(problem, problem.servers()[s], cos2, se, ev);
    }
    ev.score += se.score;
  }
  return ev;
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
  const ServerEvaluation se = f.problem->evaluate({0}).servers[0];
  ASSERT_TRUE(se.fits);
  EXPECT_NEAR(se.required_capacity, 6.0, 0.1);
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
    EXPECT_EQ(multi.total_required_capacity, single.total_required_capacity);
    EXPECT_EQ(multi.score, single.score);
  }
}

TEST(MultiProblem, RandomAssignmentsMatchOracleBitForBit) {
  // Case-study CPU traces on a theta < 1 commitment with a binding deadline,
  // off-grid random memory and disk series on some workloads (absent on the
  // others), and a heterogeneous pool: every field of every evaluation must
  // equal the oracle's bits.
  const qos::CosCommitment cos2{0.6, 60.0};
  const trace::Calendar cal = trace::Calendar::standard(1);
  const std::vector<DemandTrace> demands =
      workload::case_study_traces(cal, 2006);
  qos::Requirement req = flat_req();
  req.m_percent = 97.0;
  Rng rng(15);
  std::vector<qos::WorkloadAllocations> workloads;
  for (std::size_t i = 0; i < 10; ++i) {
    const DemandTrace& d = demands[i];
    qos::WorkloadAllocations w(
        qos::AllocationTrace(d, qos::translate(d, req, cos2)));
    const auto series = [&](double hi) {
      std::vector<double> v(cal.size());
      for (double& x : v) x = rng.uniform(0.0, hi);
      return v;
    };
    if (i % 4 != 3) {
      w.set_attribute(Attribute::kMemoryGb,
                      DemandTrace(d.name() + "/mem", cal, series(24.0)));
    }
    if (i % 3 == 0) {
      w.set_attribute(Attribute::kDiskMbps,
                      DemandTrace(d.name() + "/disk", cal, series(250.0)));
    }
    workloads.push_back(std::move(w));
  }
  std::vector<sim::MultiServerSpec> pool;
  const std::vector<std::size_t> cpus{16, 16, 8, 12, 16};
  const std::vector<double> memory{96.0, 80.0, 64.0, 128.0, 0.0};
  for (std::size_t s = 0; s < cpus.size(); ++s) {
    sim::MultiServerSpec spec;
    spec.name = "srv-";
    spec.name += std::to_string(s);
    spec.cpus = cpus[s];
    spec.memory_gb = memory[s];
    pool.push_back(spec);
  }
  const MultiPlacementProblem problem(workloads, pool, cos2);

  std::size_t fit = 0;
  std::size_t rejected = 0;
  std::size_t attribute_bound = 0;
  Assignment a(workloads.size());
  for (std::size_t& g : a) g = rng.uniform_index(pool.size());
  for (std::size_t step = 0; step < 60; ++step) {
    if (step % 17 == 0) {
      for (std::size_t& g : a) g = rng.uniform_index(pool.size());
    } else {
      a[rng.uniform_index(a.size())] = rng.uniform_index(pool.size());
    }
    const PlacementEvaluation ev = problem.evaluate(a);
    expect_same_evaluation(ev, oracle_evaluate(problem, cos2, a));
    if (HasFatalFailure()) FAIL() << "step " << step;
    for (std::size_t s = 0; s < ev.servers.size(); ++s) {
      const ServerEvaluation& se = ev.servers[s];
      if (se.used) (se.fits ? fit : rejected) += 1;
      // Where a non-CPU attribute sets the utilization of three or more
      // summed series, the summation order shows in the last bits.
      if (se.fits && se.workloads.size() >= 3 &&
          se.utilization * static_cast<double>(cpus[s]) >
              se.required_capacity) {
        attribute_bound += 1;
      }
    }
  }
  EXPECT_GT(fit, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(attribute_bound, 0u);
}

TEST(MultiRequired, EmptyFits) {
  // An empty server is unused and scores +1 whatever its capacities.
  auto f = make_fixture({1.0}, {8.0}, 2, 16, 0.0, /*attach_memory=*/false);
  const PlacementEvaluation ev = f.problem->evaluate({0});
  EXPECT_TRUE(ev.feasible);
  EXPECT_FALSE(ev.servers[1].used);
  EXPECT_EQ(ev.servers[1].score, 1.0);
  expect_same_evaluation(ev, oracle_evaluate(*f.problem, f.cos2, {0}));
}

TEST(MultiRequired, CpuAndMemoryBothChecked) {
  // Two workloads: 2 CPUs demand each (4 CPU allocation at U_low = 0.5)
  // plus 20 GiB memory each.
  auto fits = make_fixture({2.0, 2.0}, {20.0, 20.0}, 1, 16, 64.0);
  const PlacementEvaluation ok = fits.problem->evaluate({0, 0});
  EXPECT_TRUE(ok.feasible);
  EXPECT_NEAR(ok.servers[0].required_capacity, 8.0, 0.1);
  expect_same_evaluation(ok,
                         oracle_evaluate(*fits.problem, fits.cos2, {0, 0}));

  // Memory-bound: CPU fits easily, 40 GiB > 32 GiB.
  auto mem_bound = make_fixture({2.0, 2.0}, {20.0, 20.0}, 1, 16, 32.0);
  const PlacementEvaluation mem = mem_bound.problem->evaluate({0, 0});
  EXPECT_FALSE(mem.feasible);
  EXPECT_FALSE(mem.servers[0].fits);
  EXPECT_EQ(mem.servers[0].score, -2.0);
  expect_same_evaluation(
      mem, oracle_evaluate(*mem_bound.problem, mem_bound.cos2, {0, 0}));

  // CPU-bound: memory fine, 8 CPUs > 4.
  auto cpu_bound = make_fixture({2.0, 2.0}, {20.0, 20.0}, 1, 4, 64.0);
  const PlacementEvaluation cpu = cpu_bound.problem->evaluate({0, 0});
  EXPECT_FALSE(cpu.feasible);
  EXPECT_FALSE(cpu.servers[0].fits);
  expect_same_evaluation(
      cpu, oracle_evaluate(*cpu_bound.problem, cpu_bound.cos2, {0, 0}));
}

TEST(MultiRequired, AbsentAttributesConsumeNothing) {
  // No memory trace: zero memory capacity is fine and the utilization is
  // the CPU's alone.
  auto f = make_fixture({1.0}, {0.0}, 1, 16, 0.0, /*attach_memory=*/false);
  const PlacementEvaluation ev = f.problem->evaluate({0});
  ASSERT_TRUE(ev.servers[0].fits);
  EXPECT_EQ(ev.servers[0].utilization, ev.servers[0].required_capacity / 16.0);
  expect_same_evaluation(ev, oracle_evaluate(*f.problem, f.cos2, {0}));
}

TEST(MultiRequired, AggregatesMemoryAcrossWorkloads) {
  // 10 + 15 + 7.5 = 32.5 GiB of 64 bind tighter than 3 CPUs of 16.
  auto f = make_fixture({0.5, 0.5, 0.5}, {10.0, 15.0, 7.5}, 1, 16, 64.0);
  const PlacementEvaluation ev = f.problem->evaluate({0, 0, 0});
  ASSERT_TRUE(ev.servers[0].fits);
  EXPECT_EQ(ev.servers[0].utilization, 32.5 / 64.0);
  expect_same_evaluation(ev, oracle_evaluate(*f.problem, f.cos2, {0, 0, 0}));

  // Off-grid demand sums in ascending id order: (0.1 + 0.2) + 0.3 is one
  // ulp above 0.3 + 0.2 + 0.1.
  auto g = make_fixture({0.5, 0.5, 0.5}, {0.1, 0.2, 0.3}, 1, 16, 1.0);
  const PlacementEvaluation off = g.problem->evaluate({0, 0, 0});
  ASSERT_TRUE(off.servers[0].fits);
  EXPECT_EQ(off.servers[0].utilization, (0.1 + 0.2) + 0.3);
  expect_same_evaluation(off, oracle_evaluate(*g.problem, g.cos2, {0, 0, 0}));
}

TEST(MultiProblem, RejectsSubGridTolerance) {
  auto f = make_fixture({1.0}, {1.0}, 1, 16, 64.0);
  EXPECT_THROW(MultiPlacementProblem(f.workloads,
                                     f.problem->servers(), f.cos2, 0x1p-21),
               InvalidArgument);
}

}  // namespace
}  // namespace ropus::placement
