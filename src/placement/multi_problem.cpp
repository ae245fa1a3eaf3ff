#include "placement/multi_problem.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/error.h"
#include "slo/kernel.h"

namespace ropus::placement {

namespace {
std::vector<qos::AllocationTrace> cpu_traces_of(
    std::span<const qos::WorkloadAllocations> workloads) {
  std::vector<qos::AllocationTrace> out;
  out.reserve(workloads.size());
  for (const qos::WorkloadAllocations& w : workloads) out.push_back(w.cpu());
  return out;
}

std::vector<sim::ServerSpec> cpu_pool_of(
    const std::vector<sim::MultiServerSpec>& servers) {
  std::vector<sim::ServerSpec> out;
  out.reserve(servers.size());
  for (const sim::MultiServerSpec& s : servers) {
    s.validate();
    out.push_back(sim::ServerSpec{s.name, s.cpus});
  }
  return out;
}
}  // namespace

MultiPlacementProblem::MultiPlacementProblem(
    std::span<const qos::WorkloadAllocations> workloads,
    std::vector<sim::MultiServerSpec> servers, qos::CosCommitment cos2,
    double capacity_tolerance)
    : workloads_(workloads),
      servers_(std::move(servers)),
      cpu_traces_(cpu_traces_of(workloads)),
      cpu_(cpu_traces_, cpu_pool_of(servers_), cos2, capacity_tolerance) {}

std::size_t MultiPlacementProblem::IdsHash::operator()(
    const std::vector<std::size_t>& ids) const {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t id : ids) {
    h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

MultiPlacementProblem::AttributePeaks MultiPlacementProblem::attribute_peaks(
    const std::vector<std::size_t>& ids) const {
  {
    const std::shared_lock<std::shared_mutex> lock(peaks_mutex_);
    if (const auto it = peaks_.find(ids); it != peaks_.end()) {
      return it->second;
    }
  }
  // Non-CPU series are not on the allocation grid, so their sums depend on
  // order: always ascending id order.
  AttributePeaks peaks{};
  std::vector<double> total;
  for (trace::Attribute a : trace::kAllAttributes) {
    if (a == trace::Attribute::kCpu) continue;
    bool any = false;
    for (std::size_t id : ids) {
      const trace::DemandTrace* t = workloads_[id].attribute(a);
      if (t == nullptr) continue;
      if (!any) total.assign(t->size(), 0.0);
      any = true;
      for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*t)[i];
    }
    if (any) {
      peaks[trace::attribute_index(a)] =
          *std::max_element(total.begin(), total.end());
    }
  }
  // Duplicate concurrent computes resolve to the first insert; the values
  // are identical either way.
  const std::unique_lock<std::shared_mutex> lock(peaks_mutex_);
  peaks_.emplace(ids, peaks);
  return peaks;
}

bool MultiPlacementProblem::attributes_fit(
    const AttributePeaks& peaks, const sim::MultiServerSpec& server) {
  for (trace::Attribute a : trace::kAllAttributes) {
    if (a == trace::Attribute::kCpu) continue;
    if (peaks[trace::attribute_index(a)] >
        server.capacity(a) + slo::kCapacityEps) {
      return false;
    }
  }
  return true;
}

PlacementEvaluation MultiPlacementProblem::evaluate(
    const Assignment& a) const {
  PlacementEvaluation ev = cpu_.evaluate(a);  // validates `a`
  // Rebuild the totals in server order from the per-server values below.
  ev.score = 0.0;
  ev.feasible = true;
  ev.total_required_capacity = 0.0;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerEvaluation& se = ev.servers[s];
    if (se.used) score_server(se, servers_[s], ev);
    ev.score += se.score;
  }
  return ev;
}

void MultiPlacementProblem::score_server(ServerEvaluation& se,
                                         const sim::MultiServerSpec& spec,
                                         PlacementEvaluation& ev) const {
  const AttributePeaks peaks = attribute_peaks(se.workloads);
  if (!se.fits || !attributes_fit(peaks, spec)) {
    ev.feasible = false;
    se.fits = false;
    se.required_capacity = 0.0;
    se.utilization = 0.0;
    se.score = -static_cast<double>(se.workloads.size());
    return;
  }
  // Scoring utilization: the tightest attribute on this server, so a
  // memory-bound box does not masquerade as underused.
  double u = se.required_capacity / spec.capacity(trace::Attribute::kCpu);
  for (trace::Attribute a : trace::kAllAttributes) {
    const double cap = spec.capacity(a);
    if (a == trace::Attribute::kCpu || cap <= 0.0) continue;
    u = std::max(u, peaks[trace::attribute_index(a)] / cap);
  }
  se.utilization = std::min(1.0, u);
  se.score = PlacementProblem::utilization_score(se.utilization, spec.cpus);
  ev.total_required_capacity += se.required_capacity;
}

std::optional<Assignment> MultiPlacementProblem::greedy_seed() const {
  // First-fit-decreasing by peak CPU allocation: each workload goes to the
  // first server whose attributes and CPU probe both still fit it.
  std::vector<std::size_t> order(workloads_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t x, std::size_t y) {
                     return cpu_traces_[x].peak_allocation() >
                            cpu_traces_[y].peak_allocation();
                   });
  const std::unique_ptr<DeltaPlacementContext> ctx = cpu_.make_delta_context();
  std::vector<std::size_t> trial;
  Assignment result(workloads_.size());
  for (std::size_t w : order) {
    bool placed = false;
    for (std::size_t s = 0; s < servers_.size() && !placed; ++s) {
      const std::span<const std::size_t> hosted = ctx->engine().hosted(s);
      trial.assign(hosted.begin(), hosted.end());
      trial.insert(std::ranges::upper_bound(trial, w), w);
      if (attributes_fit(attribute_peaks(trial), servers_[s]) &&
          ctx->probe(s, w).fits) {
        ctx->add(w, s);
        result[w] = s;
        placed = true;
      }
    }
    if (!placed) return std::nullopt;
  }
  return result;
}

}  // namespace ropus::placement
