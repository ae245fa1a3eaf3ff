#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "sim/simulator.h"

namespace ropus::sim {
namespace {

using trace::Calendar;

// 2 weeks, 2 slots/day -> 28 observations, 4 (week, slot) groups.
Calendar two_weeks() { return Calendar(2, 720); }

/// One workload's series, zero-padded to the calendar, through the factory.
Aggregate make_aggregate(std::vector<double> cos1, std::vector<double> cos2) {
  cos1.resize(two_weeks().size(), 0.0);
  cos2.resize(two_weeks().size(), 0.0);
  return Aggregate::from_series(two_weeks(), cos1, cos2);
}

TEST(ThetaBreakdown, FindsTheWorstGroup) {
  // Week 1, slot 1 carries a 4-CPU request against 2 available; everything
  // else is satisfied in full.
  std::vector<double> cos2(two_weeks().size(), 1.0);
  const Calendar cal = two_weeks();
  for (std::size_t d = 0; d < 7; ++d) {
    cos2[cal.index(1, d, 1)] = 4.0;
  }
  const Aggregate agg = make_aggregate({}, cos2);
  const ThetaBreakdown b = theta_breakdown(agg, 2.0);
  EXPECT_EQ(b.worst_week, 1u);
  EXPECT_EQ(b.worst_slot, 1u);
  EXPECT_NEAR(b.theta, 0.5, 1e-12);
  ASSERT_EQ(b.group_ratios.size(), 4u);
  EXPECT_DOUBLE_EQ(b.group_ratios[0], 1.0);  // week 0, slot 0
  EXPECT_NEAR(b.group_ratios[3], 0.5, 1e-12);  // week 1, slot 1
}

TEST(ThetaBreakdown, AgreesWithEvaluate) {
  std::vector<double> cos1(two_weeks().size());
  std::vector<double> cos2(two_weeks().size());
  for (std::size_t i = 0; i < cos1.size(); ++i) {
    cos1[i] = 0.3 + 0.1 * static_cast<double>(i % 4);
    cos2[i] = 0.5 + 0.4 * static_cast<double>(i % 5);
  }
  const Aggregate agg = make_aggregate(cos1, cos2);
  const double capacity = 1.6;
  const ThetaBreakdown b = theta_breakdown(agg, capacity);
  const Evaluation ev =
      evaluate(agg, capacity, qos::CosCommitment{0.5, 10080.0});
  ASSERT_TRUE(ev.cos1_satisfied);
  EXPECT_NEAR(b.theta, ev.theta, 1e-12);
}

TEST(ThetaBreakdown, NoCos2MeansPerfectTheta) {
  const Aggregate agg =
      make_aggregate(std::vector<double>(two_weeks().size(), 1.0), {});
  const ThetaBreakdown b = theta_breakdown(agg, 4.0);
  EXPECT_DOUBLE_EQ(b.theta, 1.0);
  for (double r : b.group_ratios) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(ThetaBreakdown, RejectsCos1Overflow) {
  const Aggregate agg =
      make_aggregate(std::vector<double>(two_weeks().size(), 3.0), {});
  EXPECT_THROW(theta_breakdown(agg, 2.0), InvalidArgument);
}

TEST(ThetaBreakdown, EmptyAggregateIsTrivial) {
  const Aggregate agg = aggregate_workloads({}, two_weeks());
  const ThetaBreakdown b = theta_breakdown(agg, 1.0);
  EXPECT_DOUBLE_EQ(b.theta, 1.0);
  EXPECT_TRUE(b.group_ratios.empty());
}

}  // namespace
}  // namespace ropus::sim
