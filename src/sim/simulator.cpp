#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "slo/kernel.h"

namespace ropus::sim {

namespace {
// Tolerance for "CoS1 exceeds capacity": the kernel's shared slack, so a
// required capacity found by binary search is not rejected for a few ULPs
// on re-evaluation.
constexpr double kCapacityEps = slo::kCapacityEps;

// Instrumentation (docs/observability.md): the replay slot loop and the
// capacity search dominate every solver and bench, so their volume is
// tracked with per-call relaxed counters — cheap enough for the hot path.
obs::Counter& evaluate_calls() {
  static obs::Counter& c = obs::counter("sim.evaluate.calls");
  return c;
}
obs::Counter& evaluate_slots() {
  static obs::Counter& c = obs::counter("sim.evaluate.slots");
  return c;
}
}  // namespace

Aggregate::Aggregate(const trace::Calendar& calendar)
    : calendar_(calendar),
      cos1_(calendar.size(), 0.0),
      cos2_(calendar.size(), 0.0) {}

void Aggregate::finish() {
  for (std::size_t i = 0; i < cos1_.size(); ++i) {
    peak_cos1_ = std::max(peak_cos1_, cos1_[i]);
    peak_total_ = std::max(peak_total_, cos1_[i] + cos2_[i]);
  }
  ROPUS_REQUIRE(peak_total_ < kGridTotalLimit,
                "per-slot allocation total exceeds the capacity model's "
                "2^30 CPU limit");
}

Aggregate Aggregate::from_series(const trace::Calendar& calendar,
                                 std::span<const double> cos1,
                                 std::span<const double> cos2) {
  ROPUS_REQUIRE(cos1.size() == calendar.size() &&
                    cos2.size() == calendar.size(),
                "aggregate series must match the calendar");
  Aggregate agg(calendar);
  for (std::size_t i = 0; i < cos1.size(); ++i) {
    ROPUS_REQUIRE(std::isfinite(cos1[i]) && cos1[i] >= 0.0 &&
                      std::isfinite(cos2[i]) && cos2[i] >= 0.0,
                  "aggregate values must be finite and >= 0");
    agg.cos1_[i] = grid::snap(cos1[i]);
    agg.cos2_[i] = grid::snap(cos2[i]);
  }
  agg.workloads_ = 1;
  agg.finish();
  agg.sum_peak_cos1_ = agg.peak_cos1_;
  return agg;
}

Aggregate aggregate_workloads(
    std::span<const qos::AllocationTrace* const> workloads,
    const trace::Calendar& calendar) {
  Aggregate agg(calendar);
  for (const qos::AllocationTrace* w : workloads) {
    ROPUS_REQUIRE(w != nullptr, "null workload");
    ROPUS_REQUIRE(w->calendar() == calendar,
                  "workloads must share the server calendar");
    const std::span<const double> c1 = w->cos1();
    const std::span<const double> c2 = w->cos2();
    for (std::size_t i = 0; i < agg.cos1_.size(); ++i) {
      agg.cos1_[i] += c1[i];
      agg.cos2_[i] += c2[i];
    }
    agg.sum_peak_cos1_ += w->peak_cos1();
    agg.workloads_ += 1;
  }
  agg.finish();
  return agg;
}

namespace {
// The dense slot loop behind evaluate() and theta_breakdown(): replays all
// slots of `agg` at `capacity`, adding each slot's requested and satisfied
// CoS2 to `theta` (pre-sized to the calendar's groups) and appending pool
// records to `rec` when it is non-null. Stops at the first CoS1 overcommit.
Evaluation replay(const AggregateView& agg, double capacity,
                  std::size_t deadline_slots, slo::ThetaAccumulator& theta,
                  obs::Recorder* rec) {
  // Pool-aggregate records carry the exact satisfied CoS2.
  const auto record = [&](std::size_t i, double s1, double s2, double granted,
                          double sat2) {
    if (rec == nullptr || !rec->should_record(i)) return;
    obs::SlotRecord r;
    r.slot = static_cast<std::uint32_t>(i);
    r.app = obs::kPoolApp;
    r.section = rec->section();
    r.telemetry = static_cast<std::uint8_t>(obs::TelemetryMark::kOk);
    r.demand = s1 + s2;
    r.cos1 = s1;
    r.cos2 = s2;
    r.granted = granted;
    r.satisfied2 = sat2;  // exact — the watchdog's theta sums match
    rec->append(r);
  };

  // Per (week, slot-of-day) group sums and the deferral FIFO both live in
  // the slo kernel (src/slo/kernel.h), shared with the online watchdog.
  Evaluation ev;
  slo::DeferralQueue backlog(deadline_slots);
  const std::size_t n = agg.calendar().size();
  const std::span<const double> s1v = agg.cos1();
  const std::span<const double> s2v = agg.cos2();
  for (std::size_t i = 0; i < n; ++i) {
    const double s1 = s1v[i];
    const double s2 = s2v[i];
    if (s1 > capacity + kCapacityEps) {
      // All of the capacity went to (part of) CoS1. CoS1 is the guaranteed
      // class; once violated the placement is invalid regardless of the
      // statistics, so stop early.
      record(i, s1, s2, capacity, 0.0);
      ev.cos1_satisfied = false;
      ev.theta = 0.0;
      ev.deadline_met = false;
      return ev;
    }
    const double available = std::max(0.0, capacity - s1);
    const double sat2 = std::min(s2, available);
    theta.add(i, s2, sat2);
    record(i, s1, s2, s1 + sat2, sat2);

    // Spare capacity (after serving this slot's requests) drains the oldest
    // deferred demand first.
    backlog.drain(available - sat2);
    backlog.defer(i, s2 - sat2);
    ev.max_backlog = std::max(ev.max_backlog, backlog.total());
    if (backlog.overdue(i)) ev.deadline_met = false;
  }
  // Anything still queued past its deadline at the end of the trace counts.
  if (backlog.overdue_at_end(n)) ev.deadline_met = false;

  ev.theta = theta.theta();
  return ev;
}
}  // namespace

Evaluation evaluate(const AggregateView& agg, double capacity,
                    const qos::CosCommitment& cos2) {
  ROPUS_REQUIRE(capacity >= 0.0, "capacity must be >= 0");
  cos2.validate();
  if (agg.empty()) return Evaluation{};
  const trace::Calendar& cal = agg.calendar();
  evaluate_calls().add(1);
  evaluate_slots().add(cal.size());

  // Flight recording: each evaluate() call opens its own section, so
  // repeated passes over the same slots stay separable in the recording.
  obs::Recorder* const rec = obs::Recorder::active();
  if (rec != nullptr) {
    rec->set_calendar(static_cast<double>(cal.minutes_per_sample()),
                      cal.slots_per_day());
    rec->begin_section();
  }
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  return replay(agg, capacity, cal.observations_in(cos2.deadline_minutes),
                theta, rec);
}

ThetaBreakdown theta_breakdown(const Aggregate& agg, double capacity) {
  ROPUS_REQUIRE(capacity >= 0.0, "capacity must be >= 0");
  ThetaBreakdown breakdown;
  if (agg.empty()) return breakdown;
  const trace::Calendar& cal = agg.calendar();
  slo::ThetaAccumulator theta(cal.weeks(), cal.slots_per_day());
  // Only the group sums are read, so the deferral deadline is immaterial.
  ROPUS_REQUIRE(replay(agg, capacity, 0, theta, nullptr).cos1_satisfied,
                "CoS1 exceeds capacity; breakdown is undefined");
  breakdown.group_ratios = theta.ratios();
  const slo::ThetaAccumulator::Worst worst = theta.worst();
  breakdown.theta = worst.theta;
  breakdown.worst_week = worst.group / cal.slots_per_day();
  breakdown.worst_slot = worst.group % cal.slots_per_day();
  return breakdown;
}

double capacity_grid_step(double tolerance) {
  ROPUS_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  int e = 0;
  std::frexp(tolerance, &e);  // tolerance = m * 2^e with m in [0.5, 1)
  return std::ldexp(1.0, e - 1);
}

CapacityProbe::CapacityProbe(const AggregateView& agg,
                             const qos::CosCommitment& cos2)
    : agg_(agg), cos2_(cos2) {
  cos2.validate();
  if (agg.empty()) return;
  const trace::Calendar& cal = agg.calendar();
  const std::size_t n = cal.size();
  const std::size_t spd = cal.slots_per_day();
  deadline_slots_ = cal.observations_in(cos2.deadline_minutes);
  requested_.assign(cal.weeks() * spd, 0.0);
  deficit_.assign(requested_.size(), 0.0);
  // Group sums in slot order, as the dense replay adds them.
  const double* s2 = agg.cos2().data();
  for (std::size_t w = 0; w < cal.weeks(); ++w) {
    double* const req = requested_.data() + w * spd;
    for (std::size_t d = 0; d < trace::Calendar::kDaysPerWeek; ++d) {
      for (std::size_t t = 0; t < spd; ++t) req[t] += *s2++;
    }
  }
  block_max_.resize((n + kBlock - 1) / kBlock);
  for (std::size_t b = 0; b < block_max_.size(); ++b) {
    double m = 0.0;
    for (std::size_t i = b * kBlock; i < std::min(n, (b + 1) * kBlock); ++i) {
      m = std::max(m, agg.cos1()[i] + agg.cos2()[i]);
    }
    block_max_[b] = m;
  }
}

bool CapacityProbe::operator()(double capacity, Evaluation& out) {
  ROPUS_REQUIRE(capacity >= 0.0 && grid::on_grid(capacity),
                "probe capacity must be a grid value >= 0");
  if (agg_.empty()) {
    out = Evaluation{};
    return true;
  }
  evaluate_calls().add(1);
  std::size_t read = 0;
  const bool ok = replay(capacity, out, read);
  evaluate_slots().add(read);
  for (const std::size_t g : touched_) deficit_[g] = 0.0;
  touched_.clear();
  return ok;
}

// Each early exit returns the verdict the dense replay reaches, at the first
// slot that decides it. `read` counts the slots actually replayed.
bool CapacityProbe::replay(double capacity, Evaluation& out,
                           std::size_t& read) {
  const trace::Calendar& cal = agg_.calendar();
  const std::size_t n = cal.size();
  const std::size_t spd = cal.slots_per_day();
  const std::size_t week = trace::Calendar::kDaysPerWeek * spd;
  const double* const s1v = agg_.cos1().data();
  const double* const s2v = agg_.cos2().data();
  slo::DeferralQueue backlog(deadline_slots_);
  Evaluation ev;
  for (std::size_t b = 0; b < block_max_.size(); ++b) {
    // No slot in the block can leave a deficit, and nothing is queued to
    // drain: the whole block is a run of no-ops.
    if (backlog.empty() && block_max_[b] <= capacity) continue;
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    read += end - b * kBlock;
    for (std::size_t i = b * kBlock; i < end; ++i) {
      const double s1 = s1v[i];
      const double s2 = s2v[i];
      if (backlog.empty() && s1 + s2 <= capacity) continue;
      if (s1 > capacity + kCapacityEps) return false;
      const double available = std::max(0.0, capacity - s1);
      const double sat2 = std::min(s2, available);
      const double deficit = s2 - sat2;
      if (deficit > 0.0) {
        // A group's ratio only falls as its deficit grows (IEEE division is
        // monotone in the numerator), so one already below the target
        // decides the verdict.
        const std::size_t g = i / week * spd + i % spd;
        if (deficit_[g] == 0.0) touched_.push_back(g);
        deficit_[g] += deficit;
        if (ratio(g) < cos2_.theta) return false;
      }
      backlog.drain(available - sat2);
      backlog.defer(i, deficit);
      ev.max_backlog = std::max(ev.max_backlog, backlog.total());
      if (backlog.overdue(i)) return false;
    }
  }
  if (backlog.overdue_at_end(n)) return false;
  // Untouched groups have ratio exactly 1, like dense's satisfied ==
  // requested; every touched ratio passed its last check above.
  for (const std::size_t g : touched_) ev.theta = std::min(ev.theta, ratio(g));
  out = ev;
  return true;
}

RequiredCapacity required_capacity(const AggregateView& agg, double limit,
                                   const qos::CosCommitment& cos2,
                                   double tolerance, double warm_capacity) {
  ROPUS_REQUIRE(limit >= 0.0 && grid::on_grid(limit),
                "capacity limit must be a grid value >= 0");
  ROPUS_REQUIRE(tolerance >= grid::kStep,
                "tolerance must be at least the 2^-20 allocation grid");
  static obs::Counter& searches = obs::counter("sim.required_capacity.searches");
  static obs::Histogram& seconds =
      obs::histogram("sim.required_capacity.seconds");
  searches.add(1);
  obs::ScopedTimer timer(seconds);
  // The search probes capacities that are *expected* to fail (that is how a
  // binary search works); recording those passes would flood a flight
  // recording with pool sections whose theta says nothing about any accepted
  // configuration. Suppress recording for the whole search — callers record
  // a real configuration by calling evaluate() directly.
  struct RecorderPause {
    obs::Recorder* const rec = obs::Recorder::active();
    RecorderPause() { obs::Recorder::set_active(nullptr); }
    ~RecorderPause() { obs::Recorder::set_active(rec); }
  } pause;

  RequiredCapacity result;
  if (agg.empty()) {
    result.fits = true;
    result.capacity = 0.0;
    return result;
  }

  // Section VI-A's precheck: the sum of per-workload CoS1 peaks may not
  // exceed the server's capacity, or the workloads do not fit.
  if (agg.sum_peak_cos1() > limit + kCapacityEps) return result;

  // The candidate set: grid multiples k*step inside [CoS1 peak, limit],
  // with `limit` itself as the last resort when even the topmost grid point
  // falls short. The predicate "satisfies at capacity C" is monotone in C
  // (more capacity never hurts CoS1, theta, or the deferral deadline), so
  // the minimum satisfying candidate is unique and every search strategy —
  // cold bisection here, warm galloping below — lands on the same bits.
  const double step = capacity_grid_step(tolerance);
  const std::int64_t k_lo =
      static_cast<std::int64_t>(std::ceil(agg.peak_cos1() / step));
  const std::int64_t k_hi =
      static_cast<std::int64_t>(std::floor(limit / step));

  const auto finish = [&](double capacity, const Evaluation& at) {
    result.fits = true;
    result.capacity = capacity;
    result.at_capacity = at;
    return result;
  };

  CapacityProbe satisfies(agg, cos2);
  Evaluation e;
  if (k_lo > k_hi) {
    // No grid candidate between the peak and the limit; only `limit` left.
    if (!satisfies(limit, e)) return result;
    return finish(limit, e);
  }
  const auto satisfies_k = [&](std::int64_t k, Evaluation& out) {
    return satisfies(static_cast<double>(k) * step, out);
  };

  // Bracket invariant: lo_k known-unsatisfying (k_lo - 1 is virtually
  // unsatisfying: below the CoS1 peak candidate range), hi_k known-
  // satisfying with its evaluation in at_hi.
  std::int64_t lo_k = k_lo - 1;
  std::int64_t hi_k = -1;
  Evaluation at_hi;

  if (warm_capacity >= 0.0) {
    // Warm start: gallop out from the previous verdict. After a small
    // delta the boundary is usually within a step or two.
    const std::int64_t k_w = std::clamp(
        static_cast<std::int64_t>(std::llround(warm_capacity / step)), k_lo,
        k_hi);
    if (satisfies_k(k_w, e)) {
      hi_k = k_w;
      at_hi = e;
      for (std::int64_t d = 1; hi_k > lo_k + 1; d *= 2) {
        const std::int64_t p = std::max(k_lo, k_w - d);
        if (p >= hi_k) continue;
        if (satisfies_k(p, e)) {
          hi_k = p;
          at_hi = e;
          if (p == k_lo) break;
        } else {
          lo_k = p;
          break;
        }
      }
    } else {
      lo_k = k_w;
      for (std::int64_t d = 1; lo_k < k_hi; d *= 2) {
        const std::int64_t p = std::min(k_hi, k_w + d);
        if (p <= lo_k) continue;
        if (satisfies_k(p, e)) {
          hi_k = p;
          at_hi = e;
          break;
        }
        lo_k = p;
      }
    }
  } else {
    // Cold start: confirm the top, quick-check the bottom, then bisect.
    if (satisfies_k(k_hi, e)) {
      hi_k = k_hi;
      at_hi = e;
      if (k_lo < k_hi) {
        if (satisfies_k(k_lo, e)) {
          return finish(static_cast<double>(k_lo) * step, e);
        }
        lo_k = k_lo;
      }
    } else {
      lo_k = k_hi;
    }
  }

  if (hi_k < 0) {
    // Even the topmost grid candidate fails; `limit` is the only hope.
    if (limit > static_cast<double>(k_hi) * step && satisfies(limit, e)) {
      return finish(limit, e);
    }
    return result;  // not satisfiable within limit
  }

  while (hi_k - lo_k > 1) {
    const std::int64_t mid = lo_k + (hi_k - lo_k) / 2;
    if (satisfies_k(mid, e)) {
      hi_k = mid;
      at_hi = e;
    } else {
      lo_k = mid;
    }
  }
  return finish(static_cast<double>(hi_k) * step, at_hi);
}

}  // namespace ropus::sim
