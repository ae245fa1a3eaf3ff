// Multi-attribute placement (the Section IX extension): like
// PlacementProblem, but a server only fits if *every* capacity attribute —
// CPU under the two-CoS commitment, memory/disk/network as guaranteed
// demand — stays within its capacity.
//
// CPU verdicts come from a PlacementProblem this model owns, built over
// copies of the workloads' CPU traces and a CPU-only view of the pool, so
// the delta engine, the sparse probe and the shared (ids, cpus) memo serve
// multi-attribute placement too. This class adds only what it alone knows:
// the non-CPU check (the peak of each attribute's summed demand must stay
// within capacity), that check's memo, and the Section VI-B score with
// U = max over attributes of R_a / L_a, so a memory-bound server is not
// rewarded for idle CPUs.
#pragma once

#include <array>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "placement/model.h"
#include "placement/problem.h"
#include "qos/workload_allocations.h"
#include "sim/multi.h"

namespace ropus::placement {

class MultiPlacementProblem final : public PlacementModel {
 public:
  /// `workloads` must outlive the problem. Throws InvalidArgument on what
  /// PlacementProblem rejects or on an invalid server spec.
  MultiPlacementProblem(std::span<const qos::WorkloadAllocations> workloads,
                        std::vector<sim::MultiServerSpec> servers,
                        qos::CosCommitment cos2,
                        double capacity_tolerance = 0.05);

  std::size_t workload_count() const override { return workloads_.size(); }
  std::size_t server_count() const override { return servers_.size(); }
  const std::vector<sim::MultiServerSpec>& servers() const {
    return servers_;
  }
  std::span<const qos::WorkloadAllocations> workloads() const {
    return workloads_;
  }

  PlacementEvaluation evaluate(const Assignment& a) const override;

  /// Sum of per-workload peak CPU allocation requests.
  double total_peak_allocation() const override {
    return cpu_.total_peak_allocation();
  }

  /// First-fit-decreasing by peak CPU allocation, feasibility-checked
  /// across all attributes.
  std::optional<Assignment> greedy_seed() const override;

 private:
  /// Peak of the summed demand per non-CPU attribute (0 where no hosted
  /// workload has the attribute; the CPU entry is unused).
  using AttributePeaks = std::array<double, trace::kAttributeCount>;

  /// Memoized on the sorted id set: the peaks do not depend on the server.
  AttributePeaks attribute_peaks(const std::vector<std::size_t>& ids) const;
  static bool attributes_fit(const AttributePeaks& peaks,
                             const sim::MultiServerSpec& server);

  /// Turns a used server's CPU-only evaluation into its multi-attribute
  /// one; `ev` collects feasibility and required capacity, not the score.
  void score_server(ServerEvaluation& se, const sim::MultiServerSpec& spec,
                    PlacementEvaluation& ev) const;

  struct IdsHash {
    std::size_t operator()(const std::vector<std::size_t>& ids) const;
  };

  std::span<const qos::WorkloadAllocations> workloads_;
  std::vector<sim::MultiServerSpec> servers_;
  std::vector<qos::AllocationTrace> cpu_traces_;  // what cpu_ spans
  PlacementProblem cpu_;
  // Shared-locked lookups, exclusive inserts: evaluate() stays safe when
  // the genetic search shards a generation across threads.
  mutable std::shared_mutex peaks_mutex_;
  mutable std::unordered_map<std::vector<std::size_t>, AttributePeaks,
                             IdsHash>
      peaks_;
};

}  // namespace ropus::placement
