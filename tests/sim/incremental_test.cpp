// The reversible delta-evaluation engine: randomized add/remove/move/probe
// sequences cross-checked BIT FOR BIT against the batch oracle
// (aggregate_workloads + required_capacity), the grid-range boundary of
// add() and probe(), plus a slot-by-slot reference replay pinning the dense
// evaluate() to the sequential semantics. These are the equivalence
// guarantees the placement delta path and serve admission rely on
// (docs/algorithms.md §11).
#include "sim/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "sim/simulator.h"
#include "reference_replay.h"
#include "workload/fleet.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

struct Fixture {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::AllocationTrace> allocs;
  qos::CosCommitment cos2{0.6, 60.0};

  explicit Fixture(std::size_t weeks = 1) {
    qos::Requirement req;
    req.u_low = 0.5;
    req.u_high = 0.66;
    req.u_degr = 0.9;
    req.m_percent = 97.0;
    demands = workload::case_study_traces(Calendar::standard(weeks), 2006);
    allocs = qos::build_allocations(demands, req, cos2);
  }

  const Calendar& calendar() const { return demands[0].calendar(); }
};

/// The batch oracle for one hosted set: aggregate in ascending-id order,
/// then the cold search — exactly what the pre-delta code paths did.
RequiredCapacity oracle(const Fixture& f, std::vector<std::size_t> ids,
                        double cpus) {
  std::sort(ids.begin(), ids.end());
  std::vector<const qos::AllocationTrace*> ptrs;
  for (const std::size_t id : ids) ptrs.push_back(&f.allocs[id]);
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  return required_capacity(agg, cpus, f.cos2);
}

void expect_bitwise_equal(const RequiredCapacity& a, const RequiredCapacity& b,
                          const char* what) {
  ASSERT_EQ(a.fits, b.fits) << what;
  ASSERT_EQ(a.capacity, b.capacity) << what;  // bit compare, not NEAR
  ASSERT_EQ(a.at_capacity.cos1_satisfied, b.at_capacity.cos1_satisfied)
      << what;
  ASSERT_EQ(a.at_capacity.theta, b.at_capacity.theta) << what;
  ASSERT_EQ(a.at_capacity.deadline_met, b.at_capacity.deadline_met) << what;
  ASSERT_EQ(a.at_capacity.max_backlog, b.at_capacity.max_backlog) << what;
}

// ---------------------------------------------------------------------------
// Randomized engine-vs-oracle equivalence.

TEST(IncrementalEvaluator, RandomizedMovesMatchBatchOracleBitForBit) {
  const Fixture f;
  // A deliberately stressful pool: a tight server where CoS1 peak sums
  // overflow the limit (precheck unfit), mid-size servers where theta and
  // the deferral deadline bind, and one roomy server.
  const std::vector<double> cpus = {6.0, 16.0, 16.0, 24.0, 40.0, 96.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  for (std::size_t id = 0; id < f.allocs.size(); ++id) {
    eng.register_workload(id, f.allocs[id]);
  }

  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  Rng rng(0xDE17A);
  for (std::size_t step = 0; step < 400; ++step) {
    const std::size_t id = rng.uniform_index(f.allocs.size());
    const std::size_t target = rng.uniform_index(cpus.size());
    const std::size_t host = eng.host_of(id);
    if (host == IncrementalEvaluator::npos) {
      eng.add(id, target);
      hosted[target].push_back(id);
    } else if (rng.uniform_index(3) == 0) {
      eng.remove(id);
      std::erase(hosted[host], id);
    } else {
      eng.move(id, target);
      std::erase(hosted[host], id);
      if (target != host) hosted[target].push_back(id);
      else hosted[target].push_back(id);
    }

    // Every server's verdict matches the batch oracle bit for bit after
    // every mutation (only a couple of servers changed; the rest exercise
    // the verdict cache).
    for (std::size_t s = 0; s < cpus.size(); ++s) {
      expect_bitwise_equal(eng.verdict(s), oracle(f, hosted[s], cpus[s]),
                           "verdict vs oracle");
      if (HasFatalFailure()) return;
    }
  }
  const IncrementalEvaluator::Stats& st = eng.stats();
  EXPECT_GT(st.delta_verdicts + st.sum_rebuilds, 0u);
  EXPECT_GT(st.verdict_cache_hits, 0u);
}

TEST(IncrementalEvaluator, ProbeMatchesOracleAndRestoresStateExactly) {
  const Fixture f;
  const std::vector<double> cpus = {16.0, 24.0, 10.0};
  IncrementalEvaluator eng(f.calendar(), f.cos2, cpus);
  for (std::size_t id = 0; id < f.allocs.size(); ++id) {
    eng.register_workload(id, f.allocs[id]);
  }
  // Host a baseline set; keep the rest as probe candidates.
  std::vector<std::vector<std::size_t>> hosted(cpus.size());
  for (std::size_t id = 0; id < 12; ++id) {
    eng.add(id, id % cpus.size());
    hosted[id % cpus.size()].push_back(id);
  }
  for (std::size_t s = 0; s < cpus.size(); ++s) (void)eng.verdict(s);

  Rng rng(0xBEEF);
  for (std::size_t step = 0; step < 60; ++step) {
    const std::size_t id = 12 + rng.uniform_index(f.allocs.size() - 12);
    const std::size_t s = rng.uniform_index(cpus.size());
    std::vector<std::size_t> with = hosted[s];
    with.push_back(id);
    expect_bitwise_equal(eng.probe(s, id), oracle(f, with, cpus[s]),
                         "probe vs oracle");
    if (HasFatalFailure()) return;
    // The probe left no trace: the standing verdict still matches.
    expect_bitwise_equal(eng.verdict(s), oracle(f, hosted[s], cpus[s]),
                         "verdict after probe");
    if (HasFatalFailure()) return;
    EXPECT_EQ(eng.host_of(id), IncrementalEvaluator::npos);
  }
}

TEST(IncrementalEvaluator, OversizedAddThrows) {
  // A server's summed workload peaks bound every per-slot total; add() and
  // probe() refuse to take them to the capacity model's limit, leaving the
  // engine as it was.
  const Calendar cal(1, 60);
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  const qos::CosCommitment cos2{0.95, 60.0};
  const trace::DemandTrace small("small", cal,
                                 std::vector<double>(cal.size(), 1.0));
  const trace::DemandTrace huge("huge", cal,
                                std::vector<double>(cal.size(), 1e9));
  const qos::AllocationTrace small_alloc(small,
                                         qos::translate(small, req, cos2));
  const qos::AllocationTrace huge_alloc(huge, qos::translate(huge, req, cos2));
  ASSERT_GE(huge_alloc.peak_allocation(), kGridTotalLimit);

  IncrementalEvaluator eng(cal, cos2, {16.0});
  eng.register_workload(0, small_alloc);
  eng.register_workload(1, huge_alloc);
  eng.add(0, 0);
  const RequiredCapacity before = eng.verdict(0);
  EXPECT_THROW(eng.add(1, 0), InvalidArgument);
  EXPECT_THROW((void)eng.probe(0, 1), InvalidArgument);
  EXPECT_EQ(eng.host_of(1), IncrementalEvaluator::npos);
  const std::span<const std::size_t> hosted = eng.hosted(0);
  ASSERT_EQ(hosted.size(), 1u);
  EXPECT_EQ(hosted[0], 0u);
  expect_bitwise_equal(eng.verdict(0), before, "verdict after refusal");

  // Capacities must be grid values, as required_capacity requires.
  EXPECT_THROW(IncrementalEvaluator(cal, cos2, {16.3}), InvalidArgument);
}

TEST(IncrementalEvaluator, WarmSeedNeverChangesTheSearchResult) {
  const Fixture f;
  std::vector<const qos::AllocationTrace*> ptrs;
  for (std::size_t id = 0; id < 9; ++id) ptrs.push_back(&f.allocs[id]);
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  for (const double limit : {16.0, 24.0, 26.5, 40.0}) {
    const RequiredCapacity cold = required_capacity(agg, limit, f.cos2);
    for (const double warm : {0.0, 1.0, 15.9, 20.0, limit}) {
      const RequiredCapacity seeded =
          required_capacity(agg, limit, f.cos2, 0.05, warm);
      expect_bitwise_equal(cold, seeded, "warm vs cold");
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// The dense replay against a literal transcription of the sequential replay
// semantics.

TEST(Evaluate, MatchesReferenceReplayBitForBit) {
  const Fixture f;
  std::vector<const qos::AllocationTrace*> ptrs;
  for (std::size_t id = 0; id < 12; ++id) ptrs.push_back(&f.allocs[id]);
  const Aggregate agg = aggregate_workloads(ptrs, f.calendar());
  // Sweep capacities across the whole interesting range: CoS1 violations at
  // the bottom, multi-day deferral carry-over in the middle (backlog alive
  // across day boundaries), untroubled days at the top.
  Rng rng(0x5EED);
  std::vector<double> capacities = {0.0,
                                    agg.peak_cos1() * 0.5,
                                    agg.peak_cos1(),
                                    agg.peak_cos1() + 0.03125,
                                    agg.peak_total() * 0.75,
                                    agg.peak_total(),
                                    agg.peak_total() * 1.5};
  for (std::size_t k = 0; k < 40; ++k) {
    capacities.push_back(agg.peak_cos1() +
                         (agg.peak_total() * 1.2 - agg.peak_cos1()) *
                             rng.uniform());
  }
  bool saw_deferral = false;
  bool saw_violation = false;
  for (const double c : capacities) {
    const Evaluation dense = evaluate(agg, c, f.cos2);
    const Evaluation ref = reference_evaluate(agg, c, f.cos2);
    ASSERT_EQ(dense.cos1_satisfied, ref.cos1_satisfied) << c;
    ASSERT_EQ(dense.theta, ref.theta) << c;
    ASSERT_EQ(dense.deadline_met, ref.deadline_met) << c;
    ASSERT_EQ(dense.max_backlog, ref.max_backlog) << c;
    saw_deferral = saw_deferral || ref.max_backlog > 0.0;
    saw_violation = saw_violation || !ref.cos1_satisfied;
  }
  EXPECT_TRUE(saw_deferral);  // the sweep really exercised the FIFO
  EXPECT_TRUE(saw_violation);
}

}  // namespace
}  // namespace ropus::sim
