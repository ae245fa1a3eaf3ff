// The sparse capacity probe (sim::CapacityProbe) pinned to the dense
// oracle (reference_evaluate, a literal slot-by-slot replay): on random
// on-grid aggregates, for every grid candidate of the search, dense
// feasibility is monotone, the probe's verdict equals the oracle's, a
// satisfying probe's Evaluation is bit-equal to it, and required_capacity —
// cold and warm-started — lands on the brute-force grid-scan minimum.
// Hand-built aggregates pin the boundaries the block skip and the early
// exits must get exactly right (docs/algorithms.md §5).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "reference_replay.h"
#include "sim/simulator.h"
#include "workload/fleet.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

constexpr double kTolerance = 0.05;

/// A diurnal base load with random multi-slot CoS2 bursts, so deficits
/// cluster, carry a backlog over block and day boundaries, and leave most
/// blocks skippable at the upper candidates.
Aggregate random_aggregate(Rng& rng, std::size_t weeks) {
  const Calendar cal = Calendar::standard(weeks);
  const std::size_t spd = cal.slots_per_day();
  const double base1 = rng.uniform(0.5, 3.0);
  const double base2 = rng.uniform(0.2, 2.0);
  std::vector<double> cos1(cal.size());
  std::vector<double> cos2(cal.size());
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(i % spd) /
                         static_cast<double>(spd);
    cos1[i] = base1 * (1.0 + 0.4 * std::sin(phase)) * rng.uniform(0.9, 1.1);
    cos2[i] = base2 * (1.0 + 0.5 * std::cos(phase)) * rng.uniform(0.5, 1.5);
  }
  const std::size_t bursts = 4 + rng.uniform_index(20);
  for (std::size_t b = 0; b < bursts; ++b) {
    const std::size_t at = rng.uniform_index(cal.size());
    const std::size_t len = 1 + rng.uniform_index(24);
    const double height = rng.uniform(1.0, 6.0);
    for (std::size_t i = at; i < std::min(cal.size(), at + len); ++i) {
      cos2[i] += height;
    }
  }
  return Aggregate::from_series(cal, cos1, cos2);
}

void expect_bit_equal(const Evaluation& got, const Evaluation& want,
                      double capacity) {
  EXPECT_EQ(got.cos1_satisfied, want.cos1_satisfied) << capacity;
  EXPECT_EQ(got.deadline_met, want.deadline_met) << capacity;
  EXPECT_EQ(got.theta, want.theta) << capacity;  // bit compare, not NEAR
  EXPECT_EQ(got.max_backlog, want.max_backlog) << capacity;
}

/// The brute-force search result: the first satisfying grid candidate in
/// ascending order, else `limit` itself, judged by the dense oracle.
RequiredCapacity grid_scan(const Aggregate& agg, double limit,
                           const qos::CosCommitment& cos2) {
  RequiredCapacity out;
  if (agg.sum_peak_cos1() > limit + slo::kCapacityEps) return out;
  const double step = capacity_grid_step(kTolerance);
  const auto k_lo = static_cast<std::int64_t>(std::ceil(agg.peak_cos1() / step));
  const auto k_hi = static_cast<std::int64_t>(std::floor(limit / step));
  for (std::int64_t k = k_lo; k <= k_hi; ++k) {
    const double c = static_cast<double>(k) * step;
    const Evaluation ev = reference_evaluate(agg, c, cos2);
    if (ev.satisfies(cos2)) return RequiredCapacity{true, c, ev};
  }
  if (k_lo > k_hi || limit > static_cast<double>(k_hi) * step) {
    const Evaluation ev = reference_evaluate(agg, limit, cos2);
    if (ev.satisfies(cos2)) return RequiredCapacity{true, limit, ev};
  }
  return out;
}

void expect_search_matches(const Aggregate& agg, double limit,
                           const qos::CosCommitment& cos2) {
  const RequiredCapacity want = grid_scan(agg, limit, cos2);
  const double step = capacity_grid_step(kTolerance);
  const double answer = want.fits ? want.capacity : limit;
  for (const double warm :
       {-1.0, 0.0, agg.peak_cos1(), answer - 5 * step, answer - step, answer,
        answer + step, answer + 5 * step, limit, 1e9}) {
    const RequiredCapacity got =
        required_capacity(agg, limit, cos2, kTolerance, warm);
    ASSERT_EQ(got.fits, want.fits) << "warm " << warm;
    if (!want.fits) continue;
    ASSERT_EQ(got.capacity, want.capacity) << "warm " << warm;
    expect_bit_equal(got.at_capacity, want.at_capacity, got.capacity);
  }
}

struct Tally {
  std::size_t candidates = 0;
  std::size_t satisfied = 0;
};

/// Every grid candidate in [k_lo, k_hi]: dense feasibility is monotone, the
/// sparse probe's verdict equals it, and a satisfying probe is bit-equal.
Tally expect_candidates_match(const Aggregate& agg, double limit,
                              const qos::CosCommitment& cos2) {
  const double step = capacity_grid_step(kTolerance);
  const auto k_lo = static_cast<std::int64_t>(std::ceil(agg.peak_cos1() / step));
  const auto k_hi = static_cast<std::int64_t>(std::floor(limit / step));
  CapacityProbe probe(agg, cos2);
  bool prev = false;
  Tally tally;
  for (std::int64_t k = k_lo; k <= k_hi; ++k) {
    const double c = static_cast<double>(k) * step;
    const Evaluation want = reference_evaluate(agg, c, cos2);
    const bool dense_ok = want.satisfies(cos2);
    if (prev) {
      EXPECT_TRUE(dense_ok) << "not monotone at " << c;
    }
    prev = dense_ok;
    Evaluation got;
    const bool ok = probe(c, got);
    EXPECT_EQ(ok, dense_ok) << c;
    if (ok && dense_ok) expect_bit_equal(got, want, c);
    tally.candidates += 1;
    tally.satisfied += dense_ok ? 1 : 0;
  }
  return tally;
}

TEST(SparseProbe, MatchesDenseOracleOnRandomAggregates) {
  Rng rng(0x5A7E);
  const qos::CosCommitment commitments[] = {
      {0.6, 60.0}, {0.95, 30.0}, {0.99, 240.0}, {1.0, 5.0}, {0.8, 0.0}};
  Tally total;
  for (const std::size_t weeks : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t rounds = weeks == 1 ? 12 : 4;
    for (std::size_t r = 0; r < rounds; ++r) {
      const Aggregate agg = random_aggregate(rng, weeks);
      const qos::CosCommitment& cos2 =
          commitments[rng.uniform_index(std::size(commitments))];
      const double limit = grid::snap(agg.peak_total() * 1.1);
      const Tally t = expect_candidates_match(agg, limit, cos2);
      total.candidates += t.candidates;
      total.satisfied += t.satisfied;
      if (HasFailure()) return;
      expect_search_matches(agg, limit, cos2);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(total.satisfied, 0u);
  EXPECT_LT(total.satisfied, total.candidates);  // sweeps crossed the answer
}

TEST(SparseProbe, ReadsFewerSlotsThanTheDenseReplay) {
  Rng rng(0xB10C);
  const Aggregate agg = random_aggregate(rng, 4);
  const qos::CosCommitment cos2{0.95, 60.0};
  obs::Counter& slots = obs::counter("sim.evaluate.slots");
  obs::Counter& calls = obs::counter("sim.evaluate.calls");
  const std::uint64_t slots_before = slots.value();
  const std::uint64_t calls_before = calls.value();
  const RequiredCapacity rc =
      required_capacity(agg, grid::snap(agg.peak_total() * 1.1), cos2);
  ASSERT_TRUE(rc.fits);
  const std::uint64_t probes = calls.value() - calls_before;
  EXPECT_GT(probes, 2u);
  EXPECT_LT(slots.value() - slots_before, probes * agg.cos1().size() / 2);
}

TEST(SparseProbe, BacklogCarriedAcrossBlockDayAndWeekBoundaries) {
  // 2016 slots a week = 63 blocks of 32, 288 a day = 9 blocks: slot 2015
  // ends a block, a day and a week, slot 2303 a block and a day, slot 1000
  // sits mid-block. Each spike defers 1.5 CPUs at C = 2 that drains at 0.5
  // per slot over the boundary.
  const Calendar cal = Calendar::standard(2);
  std::vector<double> cos1(cal.size(), 1.0);
  std::vector<double> cos2(cal.size(), 0.5);
  for (const std::size_t at :
       {std::size_t{1000}, std::size_t{2015}, std::size_t{2303}}) {
    cos2[at] = 2.5;
  }
  const Aggregate agg = Aggregate::from_series(cal, cos1, cos2);
  // 60 minutes (12 slots) drains in time; 10 minutes (2 slots) cannot at C
  // = 2, so the first overdue deferral decides those candidates.
  for (const qos::CosCommitment cos2c :
       {qos::CosCommitment{0.7, 60.0}, qos::CosCommitment{0.7, 10.0}}) {
    EXPECT_GT(expect_candidates_match(agg, 4.0, cos2c).satisfied, 0u);
    expect_search_matches(agg, 4.0, cos2c);
  }
  const Evaluation at2 = reference_evaluate(agg, 2.0, {0.7, 60.0});
  ASSERT_TRUE(at2.satisfies({0.7, 60.0}));
  EXPECT_EQ(at2.max_backlog, 1.5);
  Evaluation got;
  ASSERT_TRUE(CapacityProbe(agg, {0.7, 60.0})(2.0, got));
  expect_bit_equal(got, at2, 2.0);
  EXPECT_FALSE(CapacityProbe(agg, {0.7, 10.0})(2.0, got));
}

TEST(SparseProbe, DeferralDeadlineLandingExactlyAtTraceEnd) {
  // No spare capacity anywhere at C = 2, so one spike's deferral stays
  // queued to the end: at n - 12 its 12-slot deadline is exactly the end of
  // the trace (met); one slot earlier it falls due inside the trace.
  const Calendar cal = Calendar::standard(1);
  const std::size_t n = cal.size();
  const qos::CosCommitment cos2{0.8, 60.0};
  ASSERT_EQ(cal.observations_in(cos2.deadline_minutes), 12u);
  for (const std::size_t at : {n - 12, n - 13}) {
    std::vector<double> cos1(n, 1.0);
    std::vector<double> cos2v(n, 1.0);
    cos2v[at] = 2.0;
    const Aggregate agg = Aggregate::from_series(cal, cos1, cos2v);
    const Evaluation want = reference_evaluate(agg, 2.0, cos2);
    EXPECT_EQ(want.deadline_met, at == n - 12) << at;
    Evaluation got;
    EXPECT_EQ(CapacityProbe(agg, cos2)(2.0, got), want.satisfies(cos2)) << at;
    if (want.satisfies(cos2)) expect_bit_equal(got, want, 2.0);
    expect_candidates_match(agg, 3.0, cos2);
    expect_search_matches(agg, 3.0, cos2);
  }
}

TEST(SparseProbe, CosOnePeakExactlyAtCapacity) {
  const Calendar cal = Calendar::standard(1);
  std::vector<double> cos1(cal.size(), 1.0);
  std::vector<double> cos2(cal.size(), 1.0);
  cos1[777] = 3.0;  // the peak, alone in its slot
  cos2[777] = 0.0;
  const Aggregate agg = Aggregate::from_series(cal, cos1, cos2);
  const qos::CosCommitment cos2c{0.9, 30.0};
  CapacityProbe probe(agg, cos2c);
  Evaluation got;
  ASSERT_TRUE(probe(3.0, got));  // the first candidate, exactly the peak
  expect_bit_equal(got, reference_evaluate(agg, 3.0, cos2c), 3.0);
  EXPECT_FALSE(probe(3.0 - 0x1p-20, got));
  EXPECT_FALSE(reference_evaluate(agg, 3.0 - 0x1p-20, cos2c).satisfies(cos2c));
  const RequiredCapacity rc = required_capacity(agg, 8.0, cos2c);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 3.0);
  expect_candidates_match(agg, 8.0, cos2c);
  expect_search_matches(agg, 8.0, cos2c);
}

TEST(SparseProbe, ThetaExactlyAtTarget) {
  // Slot-of-day 100 of week 0 requests 2.5 CPUs on day 0 and 0.75 on the
  // other six (7.0 in all); every other slot fits C = 1.75 exactly, so the
  // group keeps 5.25 / 7.0 = 0.75 — exactly the target. A week-long
  // deadline keeps the never-drained backlog from deciding the verdict.
  const Calendar cal = Calendar::standard(1);
  std::vector<double> cos1(cal.size(), 1.0);
  std::vector<double> cos2(cal.size(), 0.75);
  cos2[100] = 2.5;
  const Aggregate agg = Aggregate::from_series(cal, cos1, cos2);
  const qos::CosCommitment cos2c{0.75, 10080.0};
  const Evaluation want = reference_evaluate(agg, 1.75, cos2c);
  ASSERT_EQ(want.theta, 0.75);
  ASSERT_TRUE(want.satisfies(cos2c));
  CapacityProbe probe(agg, cos2c);
  Evaluation got;
  ASSERT_TRUE(probe(1.75, got));
  expect_bit_equal(got, want, 1.75);
  EXPECT_FALSE(probe(1.75 - 0.03125, got));
  const RequiredCapacity rc = required_capacity(agg, 4.0, cos2c);
  ASSERT_TRUE(rc.fits);
  EXPECT_EQ(rc.capacity, 1.75);
  EXPECT_EQ(rc.at_capacity.theta, 0.75);
  expect_candidates_match(agg, 4.0, cos2c);
  expect_search_matches(agg, 4.0, cos2c);
}

TEST(SparseProbe, FleetAggregatesAreOnGridAndMatchDense) {
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  const qos::CosCommitment cos2{0.95, 60.0};
  const auto demands =
      workload::case_study_traces(Calendar::standard(1), 2006);
  const auto allocs = qos::build_allocations(demands, req, cos2);
  for (std::size_t first = 0; first + 3 <= allocs.size(); first += 7) {
    std::vector<const qos::AllocationTrace*> ptrs;
    for (std::size_t i = first; i < first + 3; ++i) ptrs.push_back(&allocs[i]);
    const Aggregate agg = aggregate_workloads(ptrs, demands[0].calendar());
    expect_candidates_match(agg, 16.0, cos2);
    expect_search_matches(agg, 16.0, cos2);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace ropus::sim
