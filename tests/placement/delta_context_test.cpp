// DeltaPlacementContext vs the batch oracle this file builds from
// sim::required_capacity over sim::aggregate_workloads: a context's
// evaluate() must be bit-identical to it for ANY assignment sequence, no
// matter what the context evaluated before (its engine state and warm
// seeds differ every time — the verdicts must not). Also the probe/add
// surface the greedy placers use, and case-study-shaped workloads where
// theta and the deferral deadline actually bind.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "placement/baselines.h"
#include "placement/problem.h"
#include "sim/simulator.h"
#include "workload/fleet.h"

namespace ropus::placement {
namespace {

using testing::expect_same_evaluation;

/// The batch oracle for one server hosting `ids`: a cold search over a
/// freshly built aggregate.
ServerVerdict oracle_verdict(const PlacementProblem& problem,
                             const std::vector<std::size_t>& ids,
                             const sim::ServerSpec& server) {
  std::vector<const qos::AllocationTrace*> hosted;
  for (const std::size_t id : ids) hosted.push_back(&problem.workloads()[id]);
  const sim::RequiredCapacity rc = sim::required_capacity(
      sim::aggregate_workloads(hosted, problem.workloads()[0].calendar()),
      server.capacity(), problem.cos2(), problem.tolerance());
  return ServerVerdict{rc.fits, rc.capacity};
}

/// The Section VI-B objective over oracle verdicts, scored from scratch.
PlacementEvaluation oracle_evaluate(const PlacementProblem& problem,
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
      ev.score += se.score;
      continue;
    }
    const sim::ServerSpec& spec = problem.servers()[s];
    const ServerVerdict v = oracle_verdict(problem, se.workloads, spec);
    se.used = true;
    ev.servers_used += 1;
    se.fits = v.fits;
    if (!v.fits) {
      ev.feasible = false;
      se.score = -static_cast<double>(se.workloads.size());
    } else {
      se.required_capacity = v.capacity;
      se.utilization = std::min(1.0, v.capacity / spec.capacity());
      se.score =
          PlacementProblem::utilization_score(se.utilization, spec.cpus);
      ev.total_required_capacity += v.capacity;
    }
    ev.score += se.score;
  }
  return ev;
}

TEST(DeltaContext, RandomAssignmentSequenceMatchesBatchBitForBit) {
  const auto f = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  const std::unique_ptr<PlacementContext> ctx = f.problem->make_context();
  Rng rng(42);
  Assignment a(f.problem->workload_count(), 0);
  for (std::size_t step = 0; step < 200; ++step) {
    // Mutate a few genes — the offspring shape the genetic search feeds a
    // context — with occasional full scrambles (worst-case diffs).
    if (step % 23 == 0) {
      for (std::size_t& g : a) g = rng.uniform_index(f.problem->server_count());
    } else {
      const std::size_t moves = 1 + rng.uniform_index(3);
      for (std::size_t m = 0; m < moves; ++m) {
        a[rng.uniform_index(a.size())] =
            rng.uniform_index(f.problem->server_count());
      }
    }
    expect_same_evaluation(ctx->evaluate(a), oracle_evaluate(*f.problem, a));
    expect_same_evaluation(f.problem->evaluate(a),
                           oracle_evaluate(*f.problem, a));
    if (HasFatalFailure()) FAIL() << "step " << step;
  }
}

TEST(DeltaContext, CaseStudyWorkloadsMatchBatchWhereCommitmentsBind) {
  // Real-shape traces on a theta < 1 commitment with a binding deadline:
  // verdicts depend on the deferral FIFO and per-group theta, not just
  // peaks.
  testing::Fixture f;
  f.cos2 = qos::CosCommitment{0.6, 60.0};
  const trace::Calendar cal = trace::Calendar::standard(1);
  f.demands = workload::case_study_traces(cal, 2006);
  qos::Requirement req = testing::flat_requirement();
  req.m_percent = 97.0;
  for (const auto& d : f.demands) {
    f.allocations.emplace_back(d, qos::translate(d, req, f.cos2));
  }
  f.problem = std::make_unique<PlacementProblem>(
      f.allocations, sim::homogeneous_pool(5, 16), f.cos2);

  const std::unique_ptr<PlacementContext> ctx = f.problem->make_context();
  Rng rng(7);
  Assignment a(f.problem->workload_count());
  for (std::size_t& g : a) g = rng.uniform_index(f.problem->server_count());
  for (std::size_t step = 0; step < 30; ++step) {
    a[rng.uniform_index(a.size())] =
        rng.uniform_index(f.problem->server_count());
    expect_same_evaluation(ctx->evaluate(a), oracle_evaluate(*f.problem, a));
    expect_same_evaluation(f.problem->evaluate(a),
                           oracle_evaluate(*f.problem, a));
    if (HasFatalFailure()) FAIL() << "step " << step;
  }
}

TEST(DeltaContext, ProbeAgreesWithCommittedEvaluation) {
  const auto f =
      testing::flat_problem({3.0, 2.5, 2.0, 1.5, 1.0, 1.0, 0.5}, 4);
  const std::unique_ptr<DeltaPlacementContext> ctx =
      f.problem->make_delta_context();
  // Place greedily via probes; after each commit, the probed verdict must
  // equal what a fresh batch evaluation reports for that server.
  std::vector<std::vector<std::size_t>> hosted(f.problem->server_count());
  for (std::size_t w = 0; w < f.problem->workload_count(); ++w) {
    std::size_t target = f.problem->server_count();
    ServerVerdict chosen;
    for (std::size_t s = 0; s < f.problem->server_count(); ++s) {
      const ServerVerdict v = ctx->probe(s, w);
      if (v.fits) {
        target = s;
        chosen = v;
        break;
      }
    }
    ASSERT_LT(target, f.problem->server_count()) << w;
    ctx->add(w, target);
    hosted[target].push_back(w);
    std::vector<std::size_t> ids = hosted[target];
    std::sort(ids.begin(), ids.end());
    const ServerVerdict batch =
        oracle_verdict(*f.problem, ids, f.problem->servers()[target]);
    ASSERT_EQ(chosen.fits, batch.fits) << w;
    ASSERT_EQ(chosen.capacity, batch.capacity) << w;
  }
  // remove() restores the previous verdict bits.
  const std::size_t last = f.problem->workload_count() - 1;
  const std::size_t host = ctx->engine().host_of(last);
  ctx->remove(last);
  hosted[host].pop_back();
  if (!hosted[host].empty()) {
    const ServerVerdict after = ctx->probe(host, last);
    std::vector<std::size_t> ids = hosted[host];
    ids.push_back(last);
    std::sort(ids.begin(), ids.end());
    const ServerVerdict batch =
        oracle_verdict(*f.problem, ids, f.problem->servers()[host]);
    ASSERT_EQ(after.fits, batch.fits);
    ASSERT_EQ(after.capacity, batch.capacity);
  }
}

TEST(DeltaContext, GreedyBaselinesUnchangedByTheDeltaPath) {
  // The greedy placers now probe through the engine; their outputs are part
  // of the golden surface (seeds, ablations) and must not shift.
  const auto f = testing::flat_problem(
      {3.0, 3.0, 2.5, 2.5, 2.0, 2.0, 1.5, 1.0, 1.0, 0.5}, 6);
  const auto ffd = first_fit_decreasing(*f.problem);
  ASSERT_TRUE(ffd.has_value());
  // Recompute every server verdict from scratch with the batch oracle and
  // check the assignment scores identically.
  expect_same_evaluation(f.problem->evaluate(*ffd),
                         oracle_evaluate(*f.problem, *ffd));
}

}  // namespace
}  // namespace ropus::placement
