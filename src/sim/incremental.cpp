#include "sim/incremental.h"

#include <algorithm>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"

namespace ropus::sim {

namespace {
obs::Counter& cache_hits_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.verdict_cache_hits");
  return c;
}
obs::Counter& delta_verdicts_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_verdicts");
  return c;
}
obs::Counter& rebuilds_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.sum_rebuilds");
  return c;
}
obs::Counter& delta_probes_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_probes");
  return c;
}
}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const trace::Calendar& calendar,
                                           const qos::CosCommitment& cos2,
                                           std::vector<double> server_cpus,
                                           double tolerance)
    : calendar_(calendar), cos2_(cos2), tolerance_(tolerance) {
  cos2_.validate();
  ROPUS_REQUIRE(tolerance >= grid::kStep,
                "tolerance must be at least the 2^-20 allocation grid");
  servers_.resize(server_cpus.size());
  for (std::size_t s = 0; s < server_cpus.size(); ++s) {
    ROPUS_REQUIRE(server_cpus[s] >= 0.0 && grid::on_grid(server_cpus[s]),
                  "server capacity must be a grid value >= 0");
    servers_[s].cpus = server_cpus[s];
    servers_[s].sum1.assign(calendar_.size(), 0.0);
    servers_[s].sum2.assign(calendar_.size(), 0.0);
  }
}

void IncrementalEvaluator::register_workload(
    std::size_t id, const qos::AllocationTrace& trace) {
  ROPUS_REQUIRE(trace.calendar() == calendar_,
                "workload trace must live on the engine calendar");
  if (id >= workloads_.size()) workloads_.resize(id + 1);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host == npos, "cannot re-register a hosted workload");
  w.cos1 = trace.cos1();
  w.cos2 = trace.cos2();
  w.peak_cos1 = trace.peak_cos1();
  w.peak_total = trace.peak_allocation();
  w.active = true;
}

void IncrementalEvaluator::unregister_workload(std::size_t id) {
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "cannot unregister a hosted workload");
  // A queued remove may still reference the workload's series; flush any
  // server holding one before the spans go away.
  for (Server& s : servers_) {
    for (const PendingOp& op : s.pending) {
      if (op.id == id) {
        (void)ensure_sums(s);
        break;
      }
    }
  }
  workloads_[id] = Workload{};
}

const IncrementalEvaluator::Workload& IncrementalEvaluator::workload_checked(
    std::size_t id) const {
  ROPUS_REQUIRE(id < workloads_.size() && workloads_[id].active,
                "unknown workload id");
  return workloads_[id];
}

void IncrementalEvaluator::apply_series(Server& s, const Workload& w,
                                        double sign) {
  const std::size_t n = calendar_.size();
  double* const a1 = s.sum1.data();
  double* const a2 = s.sum2.data();
  const double* const c1 = w.cos1.data();
  const double* const c2 = w.cos2.data();
  // Every slot is touched, so the running max over the pass IS the new
  // aggregate CoS1 peak — and after an exact remove it lands back on the
  // previous bits, because the sums do.
  double peak = 0.0;
  if (sign > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] += c1[i];
      a2[i] += c2[i];
      peak = std::max(peak, a1[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] -= c1[i];
      a2[i] -= c2[i];
      peak = std::max(peak, a1[i]);
    }
  }
  s.peak_cos1 = peak;
}

void IncrementalEvaluator::queue_pending(Server& s, std::size_t id,
                                         double sign) {
  // At most one queued op can exist per id (a workload alternates between
  // hosted and unhosted), so an opposite op cancels exactly.
  for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
    if (it->id == id) {
      s.pending.erase(it);
      return;
    }
  }
  s.pending.push_back(PendingOp{id, sign});
}

void IncrementalEvaluator::require_in_range(const Server& s,
                                            const Workload& w) {
  ROPUS_REQUIRE(s.sum_peak_total + w.peak_total < kGridTotalLimit,
                "server allocation total would exceed the capacity model's "
                "2^30 CPU limit");
}

void IncrementalEvaluator::add(std::size_t id, std::size_t server) {
  workload_checked(id);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host == npos, "workload already hosted");
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  Server& s = servers_[server];
  require_in_range(s, w);
  s.ids.insert(std::ranges::lower_bound(s.ids, id), id);
  queue_pending(s, id, +1.0);
  s.sum_peak_total += w.peak_total;
  s.verdict_valid = false;
  w.host = server;
}

void IncrementalEvaluator::remove(std::size_t id) {
  workload_checked(id);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host != npos, "workload not hosted");
  Server& s = servers_[w.host];
  const auto it = std::ranges::lower_bound(s.ids, id);
  ROPUS_REQUIRE(it != s.ids.end() && *it == id, "engine id set corrupted");
  s.ids.erase(it);
  // Every hosted workload is on the grid and in range, so the queued
  // subtraction is an exact inverse.
  queue_pending(s, id, -1.0);
  s.sum_peak_total -= w.peak_total;
  s.verdict_valid = false;
  w.host = npos;
}

void IncrementalEvaluator::move(std::size_t id, std::size_t server) {
  if (host_of(id) == server) return;
  remove(id);
  add(id, server);
}

AggregateView IncrementalEvaluator::view_of(const Server& s,
                                            std::size_t workloads) const {
  return AggregateView(calendar_, s.sum1, s.sum2, s.sum_peak_cos1,
                       s.peak_cos1, workloads);
}

void IncrementalEvaluator::rebuild_sums(Server& s) {
  std::fill(s.sum1.begin(), s.sum1.end(), 0.0);
  std::fill(s.sum2.begin(), s.sum2.end(), 0.0);
  s.sum_peak_cos1 = 0.0;
  s.peak_cos1 = 0.0;
  for (const std::size_t id : s.ids) {
    const Workload& w = workloads_[id];
    apply_series(s, w, +1.0);
    s.sum_peak_cos1 += w.peak_cos1;
  }
  s.pending.clear();
}

bool IncrementalEvaluator::ensure_sums(Server& s) {
  if (s.pending.size() >= s.ids.size()) {
    // Replaying the queue costs as much as starting over — rebuild in one
    // pass.
    rebuild_sums(s);
    return true;
  }
  for (const PendingOp& op : s.pending) {
    const Workload& w = workloads_[op.id];
    apply_series(s, w, op.sign);
    s.sum_peak_cos1 += op.sign * w.peak_cos1;
  }
  s.pending.clear();
  return false;
}

const RequiredCapacity& IncrementalEvaluator::verdict(std::size_t server) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  Server& s = servers_[server];
  if (s.verdict_valid) {
    stats_.verdict_cache_hits += 1;
    cache_hits_counter().add(1);
    return s.verdict;
  }
  if (ensure_sums(s)) {
    stats_.sum_rebuilds += 1;
    rebuilds_counter().add(1);
  } else {
    stats_.delta_verdicts += 1;
    delta_verdicts_counter().add(1);
  }
  s.verdict = required_capacity(view_of(s, s.ids.size()), s.cpus, cos2_,
                                tolerance_, s.warm);
  if (s.verdict.fits) s.warm = s.verdict.capacity;
  s.verdict_valid = true;
  return s.verdict;
}

RequiredCapacity IncrementalEvaluator::probe(std::size_t server,
                                             std::size_t id) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "probe requires an unhosted workload");
  Server& s = servers_[server];
  require_in_range(s, w);
  if (ensure_sums(s)) {
    stats_.sum_rebuilds += 1;
    rebuilds_counter().add(1);
  }
  stats_.delta_probes += 1;
  delta_probes_counter().add(1);
  const double saved_sum_peak = s.sum_peak_cos1;
  apply_series(s, w, +1.0);
  s.sum_peak_cos1 += w.peak_cos1;
  const RequiredCapacity out = required_capacity(
      view_of(s, s.ids.size() + 1), s.cpus, cos2_, tolerance_, s.warm);
  // Exact restore: the subtraction returns every slot (and hence the
  // recomputed peak) to its previous bits.
  apply_series(s, w, -1.0);
  s.sum_peak_cos1 = saved_sum_peak;
  if (out.fits) s.warm = out.capacity;
  return out;
}

}  // namespace ropus::sim
