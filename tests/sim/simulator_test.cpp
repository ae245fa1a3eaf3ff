// Replay semantics of the Section VI-A simulator: CoS1-first scheduling,
// the theta statistic over (week, slot-of-day) groups, and the deadline
// backlog.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.h"
#include "common/grid.h"
#include "qos/allocation.h"
#include "qos/translation.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

// 1 week, 2 slots/day -> 14 observations; groups are (slot 0) and (slot 1).
Calendar tiny() { return Calendar(1, 720); }

/// One workload's series, zero-padded to the calendar, through the factory.
Aggregate make_aggregate(std::vector<double> cos1, std::vector<double> cos2) {
  cos1.resize(tiny().size(), 0.0);
  cos2.resize(tiny().size(), 0.0);
  return Aggregate::from_series(tiny(), cos1, cos2);
}

qos::CosCommitment commitment(double theta = 0.5,
                              double deadline_min = 1440.0) {
  return qos::CosCommitment{theta, deadline_min};
}

TEST(Evaluate, EmptyAggregateIsTriviallySatisfied) {
  const Aggregate agg = aggregate_workloads({}, tiny());
  const Evaluation ev = evaluate(agg, 1.0, commitment());
  EXPECT_TRUE(ev.cos1_satisfied);
  EXPECT_DOUBLE_EQ(ev.theta, 1.0);
  EXPECT_TRUE(ev.deadline_met);
}

TEST(Evaluate, AmpleCapacityGivesThetaOne) {
  const Aggregate agg = make_aggregate(std::vector<double>(14, 1.0),
                                       std::vector<double>(14, 2.0));
  const Evaluation ev = evaluate(agg, 10.0, commitment());
  EXPECT_TRUE(ev.cos1_satisfied);
  EXPECT_DOUBLE_EQ(ev.theta, 1.0);
  EXPECT_TRUE(ev.deadline_met);
  EXPECT_DOUBLE_EQ(ev.max_backlog, 0.0);
}

TEST(Evaluate, Cos1OverCapacityFailsHard) {
  const Aggregate agg = make_aggregate(std::vector<double>(14, 3.0),
                                       std::vector<double>(14, 0.0));
  const Evaluation ev = evaluate(agg, 2.0, commitment());
  EXPECT_FALSE(ev.cos1_satisfied);
  EXPECT_FALSE(ev.satisfies(commitment()));
}

TEST(Evaluate, ThetaIsMinOverSlotGroups) {
  // Slot 0: cos2 = 2 with 1 available -> ratio 0.5 every day.
  // Slot 1: cos2 = 1 with 1 available -> ratio 1.0.
  std::vector<double> cos1(14, 1.0);
  std::vector<double> cos2(14);
  for (std::size_t i = 0; i < 14; ++i) cos2[i] = (i % 2 == 0) ? 2.0 : 1.0;
  const Aggregate agg = make_aggregate(cos1, cos2);
  const Evaluation ev = evaluate(agg, 2.0, commitment());
  EXPECT_NEAR(ev.theta, 0.5, 1e-12);
}

TEST(Evaluate, ThetaAveragesAcrossDaysWithinGroup) {
  // Slot 0 demands alternate by day: 3 CPUs on even days, 1 on odd days,
  // with 2 available. Satisfied: min(3,2)=2 or 1. Group ratio =
  // (2+1+2+1+2+1+2) / (3+1+3+1+3+1+3) = 11/15.
  std::vector<double> cos1(14, 0.0);
  std::vector<double> cos2(14, 0.0);
  for (std::size_t day = 0; day < 7; ++day) {
    cos2[day * 2] = (day % 2 == 0) ? 3.0 : 1.0;
  }
  const Aggregate agg = make_aggregate(cos1, cos2);
  const Evaluation ev = evaluate(agg, 2.0, commitment());
  EXPECT_NEAR(ev.theta, 11.0 / 15.0, 1e-12);
}

TEST(Evaluate, DeficitServedWithinDeadline) {
  // Slot 0 of day 0 overflows by 1 CPU; every later slot has 1 CPU spare.
  // Deadline = 1 slot (720 minutes) -> met.
  std::vector<double> cos1(14, 0.0);
  std::vector<double> cos2(14, 1.0);
  cos2[0] = 3.0;
  const Aggregate agg = make_aggregate(cos1, cos2);
  const Evaluation ev = evaluate(agg, 2.0, commitment(0.1, 720.0));
  EXPECT_TRUE(ev.deadline_met);
  EXPECT_NEAR(ev.max_backlog, 1.0, 1e-12);
}

TEST(Evaluate, DeficitPastDeadlineFails) {
  // Persistent overflow: cos2 = 3 with capacity 2 everywhere. The backlog
  // never drains.
  const Aggregate agg = make_aggregate(std::vector<double>(14, 0.0),
                                       std::vector<double>(14, 3.0));
  const Evaluation ev = evaluate(agg, 2.0, commitment(0.1, 720.0));
  EXPECT_FALSE(ev.deadline_met);
}

TEST(Evaluate, ZeroDeadlineAllowsNoDeferral) {
  std::vector<double> cos2(14, 1.0);
  cos2[4] = 5.0;
  const Aggregate agg = make_aggregate(std::vector<double>(14, 0.0), cos2);
  EXPECT_FALSE(evaluate(agg, 2.0, commitment(0.1, 0.0)).deadline_met);
  // The 3-CPU deficit drains at 1 spare CPU per slot, so it needs three
  // slots (2160 minutes) — a two-slot deadline still fails.
  EXPECT_FALSE(evaluate(agg, 2.0, commitment(0.1, 1440.0)).deadline_met);
  EXPECT_TRUE(evaluate(agg, 2.0, commitment(0.1, 2160.0)).deadline_met);
}

TEST(Evaluate, TrailingDeficitAtTraceEndStillChecked) {
  // Overflow on the last observation: within deadline by construction
  // (nothing after it can violate), so deadline_met stays true...
  std::vector<double> cos2(14, 1.0);
  cos2[13] = 5.0;
  const Aggregate agg = make_aggregate(std::vector<double>(14, 0.0), cos2);
  EXPECT_TRUE(evaluate(agg, 2.0, commitment(0.1, 1440.0)).deadline_met);
  // ...but with deadline 0 it is an immediate violation.
  EXPECT_FALSE(evaluate(agg, 2.0, commitment(0.1, 0.0)).deadline_met);
}

TEST(Evaluate, ThetaMonotoneInCapacity) {
  std::vector<double> cos1(14), cos2(14);
  for (std::size_t i = 0; i < 14; ++i) {
    cos1[i] = 0.5 + 0.1 * static_cast<double>(i % 3);
    cos2[i] = 1.0 + 0.4 * static_cast<double>(i % 5);
  }
  const Aggregate agg = make_aggregate(cos1, cos2);
  double prev = 0.0;
  for (double cap = 1.0; cap <= 4.0; cap += 0.25) {
    const Evaluation ev = evaluate(agg, cap, commitment());
    if (!ev.cos1_satisfied) continue;
    EXPECT_GE(ev.theta + 1e-12, prev);
    prev = ev.theta;
  }
}

TEST(Evaluate, RejectsNegativeCapacity) {
  const Aggregate agg = make_aggregate({}, {});
  EXPECT_THROW(evaluate(agg, -1.0, commitment()), InvalidArgument);
}

TEST(AggregateWorkloads, RejectsMismatchedCalendars) {
  // Built via the qos layer: one trace on each calendar.
  const trace::DemandTrace a = trace::DemandTrace::zeros("a", tiny());
  const trace::DemandTrace b =
      trace::DemandTrace::zeros("b", Calendar(2, 720));
  qos::Requirement req;
  const qos::CosCommitment cos2{0.6, 60.0};
  const qos::AllocationTrace at(a, qos::translate(a, req, cos2));
  const qos::AllocationTrace bt(b, qos::translate(b, req, cos2));
  const std::vector<const qos::AllocationTrace*> ws{&at, &bt};
  EXPECT_THROW(aggregate_workloads(ws, tiny()), InvalidArgument);
}

// The grid invariant is set where an Aggregate is built.

TEST(AggregateFactory, SnapsOffGridValues) {
  std::vector<double> cos1(tiny().size(), 1.0 / 3.0);
  std::vector<double> cos2(tiny().size(), 0.1);
  const Aggregate agg = Aggregate::from_series(tiny(), cos1, cos2);
  for (std::size_t i = 0; i < tiny().size(); ++i) {
    EXPECT_EQ(agg.cos1()[i], grid::snap(1.0 / 3.0));
    EXPECT_EQ(agg.cos2()[i], grid::snap(0.1));
    EXPECT_TRUE(grid::on_grid(agg.cos1()[i]));
    EXPECT_TRUE(grid::on_grid(agg.cos2()[i]));
  }
  EXPECT_EQ(agg.workloads(), 1u);
  EXPECT_EQ(agg.peak_cos1(), grid::snap(1.0 / 3.0));
  EXPECT_EQ(agg.sum_peak_cos1(), agg.peak_cos1());
  EXPECT_EQ(agg.peak_total(), grid::snap(1.0 / 3.0) + grid::snap(0.1));
}

TEST(AggregateFactory, RejectsNegativeAndNonFiniteValues) {
  const std::vector<double> ok(tiny().size(), 1.0);
  for (const double bad : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> v = ok;
    v[3] = bad;
    EXPECT_THROW(Aggregate::from_series(tiny(), v, ok), InvalidArgument)
        << bad;
    EXPECT_THROW(Aggregate::from_series(tiny(), ok, v), InvalidArgument)
        << bad;
  }
  EXPECT_THROW(Aggregate::from_series(tiny(), std::vector<double>(3, 1.0), ok),
               InvalidArgument);
}

TEST(AggregateFactory, OversizedAggregateThrows) {
  // A per-slot total at the limit is refused by the factory...
  std::vector<double> cos1(tiny().size(), 1.0);
  std::vector<double> cos2(tiny().size(), 1.0);
  cos1[5] = kGridTotalLimit - 1.0;
  EXPECT_THROW(Aggregate::from_series(tiny(), cos1, cos2), InvalidArgument);
  cos2[5] = 0.5;
  EXPECT_NO_THROW(Aggregate::from_series(tiny(), cos1, cos2));

  // ...and by aggregate_workloads over allocation traces.
  qos::Requirement req;
  req.u_low = 0.5;
  req.u_high = 0.66;
  req.u_degr = 0.9;
  req.m_percent = 97.0;
  const qos::CosCommitment cos2c{0.95, 60.0};
  const trace::DemandTrace huge("huge", tiny(),
                                std::vector<double>(tiny().size(), 1e9));
  const qos::AllocationTrace alloc(huge, qos::translate(huge, req, cos2c));
  ASSERT_GE(alloc.peak_allocation(), kGridTotalLimit);
  const qos::AllocationTrace* const ptr = &alloc;
  EXPECT_THROW(aggregate_workloads({&ptr, 1}, tiny()), InvalidArgument);
}

}  // namespace
}  // namespace ropus::sim
