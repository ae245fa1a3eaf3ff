// The workload placement simulator of Section VI-A.
//
// It replays per-CoS allocation traces for a set of workloads sharing one
// server: capacity goes to CoS1 first, the remainder to CoS2. It measures
//   theta = min over weeks w and time-of-day slots t of
//           (sum over days x of satisfied CoS2) / (sum over days x of
//            requested CoS2),
// tracks a FIFO backlog of deferred CoS2 allocation that must drain within
// the commitment's deadline, and binary-searches the smallest capacity (the
// *required capacity*) for which both parts of the commitment hold.
#pragma once

#include <span>
#include <vector>

#include "common/grid.h"
#include "qos/allocation.h"
#include "qos/requirements.h"
#include "trace/calendar.h"

namespace ropus::sim {

/// Largest per-slot CoS1+CoS2 total the capacity model accepts (2^30 CPUs):
/// a (week, slot-of-day) theta group sums seven days of slots, and every
/// such sum must stay below grid::kSumLimit to be exact.
inline constexpr double kGridTotalLimit = grid::kSumLimit / 8;

/// Aggregated per-slot allocation requests of a workload set (one server).
/// Building this once lets the capacity search re-evaluate cheaply.
///
/// On the grid by construction: every value is a non-negative multiple of
/// 2^-20 (common/grid.h) and every per-slot total is below kGridTotalLimit,
/// so every replay sum is exact — the precondition of required_capacity's
/// sparse probe. Only aggregate_workloads and from_series build one, and
/// the series are read-only afterwards.
class Aggregate {
 public:
  /// The validating series factory, for data that does not come from
  /// allocation traces: snaps each value to the grid and counts the series
  /// as one workload. Throws InvalidArgument on a length other than the
  /// calendar's, a negative or non-finite value, or a per-slot total that
  /// reaches kGridTotalLimit.
  static Aggregate from_series(const trace::Calendar& calendar,
                               std::span<const double> cos1,
                               std::span<const double> cos2);

  const trace::Calendar& calendar() const { return calendar_; }
  std::span<const double> cos1() const { return cos1_; }  // per-slot sums
  std::span<const double> cos2() const { return cos2_; }
  double sum_peak_cos1() const { return sum_peak_cos1_; }  // of workloads
  double peak_cos1() const { return peak_cos1_; }    // of the CoS1 series
  double peak_total() const { return peak_total_; }  // of CoS1 + CoS2
  std::size_t workloads() const { return workloads_; }
  bool empty() const { return workloads_ == 0; }

 private:
  friend Aggregate aggregate_workloads(
      std::span<const qos::AllocationTrace* const> workloads,
      const trace::Calendar& calendar);

  explicit Aggregate(const trace::Calendar& calendar);
  /// Sets the peaks; throws when a per-slot total reaches the limit.
  void finish();

  trace::Calendar calendar_;
  std::vector<double> cos1_;
  std::vector<double> cos2_;
  double sum_peak_cos1_ = 0.0;
  double peak_cos1_ = 0.0;
  double peak_total_ = 0.0;
  std::size_t workloads_ = 0;
};

/// Aggregates a set of allocation traces; they must share one calendar.
/// An empty set yields an Aggregate with `workloads() == 0` on `calendar`.
/// Allocation traces are snapped on construction, so the sums are on the
/// grid; throws InvalidArgument when a per-slot total reaches
/// kGridTotalLimit.
Aggregate aggregate_workloads(
    std::span<const qos::AllocationTrace* const> workloads,
    const trace::Calendar& calendar);

/// Non-owning view of an aggregate's per-slot series — the shape the replay
/// actually consumes. `Aggregate` converts implicitly; the incremental
/// engine (sim/incremental.h) builds views over its own per-server sums,
/// which hold the same invariant, so engine and batch verdicts run through
/// literally the same replay and search code.
class AggregateView {
 public:
  AggregateView(const Aggregate& agg)
      : calendar_(&agg.calendar()),
        cos1_(agg.cos1()),
        cos2_(agg.cos2()),
        sum_peak_cos1_(agg.sum_peak_cos1()),
        peak_cos1_(agg.peak_cos1()),
        workloads_(agg.workloads()) {}

  const trace::Calendar& calendar() const { return *calendar_; }
  std::span<const double> cos1() const { return cos1_; }
  std::span<const double> cos2() const { return cos2_; }
  double sum_peak_cos1() const { return sum_peak_cos1_; }
  double peak_cos1() const { return peak_cos1_; }
  std::size_t workloads() const { return workloads_; }
  bool empty() const { return workloads_ == 0; }

 private:
  friend class IncrementalEvaluator;

  AggregateView(const trace::Calendar& calendar, std::span<const double> cos1,
                std::span<const double> cos2, double sum_peak_cos1,
                double peak_cos1, std::size_t workloads)
      : calendar_(&calendar),
        cos1_(cos1),
        cos2_(cos2),
        sum_peak_cos1_(sum_peak_cos1),
        peak_cos1_(peak_cos1),
        workloads_(workloads) {}

  const trace::Calendar* calendar_;
  std::span<const double> cos1_;
  std::span<const double> cos2_;
  double sum_peak_cos1_;
  double peak_cos1_;
  std::size_t workloads_;
};

/// Outcome of replaying an Aggregate against a fixed capacity.
struct Evaluation {
  bool cos1_satisfied = true;   // aggregate CoS1 never exceeded capacity
  double theta = 1.0;           // measured resource access probability
  bool deadline_met = true;     // all deferred CoS2 drained within deadline
  double max_backlog = 0.0;     // worst outstanding deferred CoS2 (CPUs)

  bool satisfies(const qos::CosCommitment& cos2) const {
    return cos1_satisfied && deadline_met && theta >= cos2.theta;
  }
};

/// The dense replay: replays all n slots of the aggregate at `capacity`
/// under `cos2` (the deadline is taken from the commitment; theta in the
/// commitment is *not* used here — compare via Evaluation::satisfies). This
/// is the path that records into an active flight recorder and that reports
/// any capacity's full statistics (core/backtest, core/repair_loop);
/// required_capacity's probes use the sparse replay below instead.
Evaluation evaluate(const AggregateView& agg, double capacity,
                    const qos::CosCommitment& cos2);

/// The required-capacity search's yes/no question — does `capacity`
/// satisfy the commitment? — asked of one aggregate at many capacities.
///
/// The probe is sparse: built once, it holds each (week, slot-of-day)
/// group's requested CoS2 sum and the CoS1+CoS2 peak of every kBlock-slot
/// block. A probe skips each block that fits under the capacity while the
/// deferral backlog is empty, replays the other slots with evaluate()'s
/// arithmetic and deferral calls, and stops at the first CoS1 overcommit,
/// overdue deferral, or group whose ratio already falls below the committed
/// theta. The aggregate and the capacity are on the grid, so every replay
/// sum is exact and satisfied CoS2 per group equals requested minus the
/// summed deficit bit for bit: the verdict equals evaluate()'s, and a
/// satisfying probe (which never exits early) returns evaluate()'s
/// Evaluation bit for bit (docs/algorithms.md §5).
///
/// Counts one `sim.evaluate.calls` per probe and, in `sim.evaluate.slots`,
/// the slots it actually replays. The aggregate's series must outlive the
/// probe.
class CapacityProbe {
 public:
  static constexpr std::size_t kBlock = 32;  // slots per skip block

  CapacityProbe(const AggregateView& agg, const qos::CosCommitment& cos2);

  /// True when `capacity` (a grid value, >= 0) satisfies `cos2`; `out` then
  /// holds its full Evaluation. A failing probe may stop early and leaves
  /// `out` unspecified.
  bool operator()(double capacity, Evaluation& out);

 private:
  bool replay(double capacity, Evaluation& out, std::size_t& read);
  double ratio(std::size_t g) const {
    return (requested_[g] - deficit_[g]) / requested_[g];
  }

  AggregateView agg_;
  qos::CosCommitment cos2_;
  std::size_t deadline_slots_ = 0;
  std::vector<double> requested_;  // per group, summed CoS2 requests
  std::vector<double> block_max_;  // per block, max of s1 + s2
  std::vector<double> deficit_;    // per group, this probe's summed deficit
  std::vector<std::size_t> touched_;  // groups with a deficit, to reset
};

/// Per-(week, slot) diagnostics: where and when a server's commitment is
/// tightest. The theta statistic is a min over these groups, so an operator
/// chasing a violation needs exactly this breakdown.
struct ThetaBreakdown {
  double theta = 1.0;          // the min (same value evaluate() reports)
  std::size_t worst_week = 0;  // argmin group
  std::size_t worst_slot = 0;  // slot-of-day of the argmin group
  /// satisfied/requested per (week, slot) group, indexed
  /// [week * slots_per_day + slot]; 1.0 for groups with no CoS2 request.
  std::vector<double> group_ratios;
};

/// Computes the theta statistic with its full per-group breakdown, on
/// evaluate()'s own slot loop (no flight recording, no `sim.evaluate.*`
/// counts), so `theta` equals evaluate()'s bit for bit. Throws
/// InvalidArgument unless the aggregate's CoS1 series fits under `capacity`
/// (use evaluate() first when unsure).
ThetaBreakdown theta_breakdown(const Aggregate& agg, double capacity);

/// Result of the required-capacity search for one server.
struct RequiredCapacity {
  bool fits = false;        // commitments satisfiable within `limit`
  double capacity = 0.0;    // smallest satisfying capacity when fits
  Evaluation at_capacity;   // evaluation at the reported capacity
};

/// The capacity search grid: the largest power of two <= `tolerance`
/// (0.03125 CPUs for the default 0.05). Searching a fixed grid instead of
/// bisecting real endpoints makes the result a pure function of the
/// aggregate — the minimum of a fixed candidate set under a monotone
/// predicate — so a warm-started delta search and the cold batch search
/// land on the same bits (docs/algorithms.md §11).
double capacity_grid_step(double tolerance);

/// Section VI-A's search: first the peak-demand precheck (sum of per-
/// workload CoS1 peaks must not exceed `limit`), then a search for the
/// smallest satisfying capacity among the grid candidates
///   { k * capacity_grid_step(tolerance) : k*step in [CoS1 peak, limit] }
/// with `limit` itself as the last-resort candidate. An empty aggregate
/// trivially fits with required capacity 0.
///
/// `limit` must be on the 2^-20 grid (every integer CPU count is) and
/// `tolerance` at least grid::kStep, so every candidate is a grid value.
/// Each candidate is judged by one CapacityProbe built for the search, and
/// `at_capacity` is bit-identical to evaluate() at the reported capacity.
///
/// `warm_capacity` (>= 0) seeds the search near a previous verdict for the
/// same server — the incremental engine's O(1)-ish re-verdict after a small
/// move. The returned capacity is identical with or without a seed.
RequiredCapacity required_capacity(const AggregateView& agg, double limit,
                                   const qos::CosCommitment& cos2,
                                   double tolerance = 0.05,
                                   double warm_capacity = -1.0);

}  // namespace ropus::sim
