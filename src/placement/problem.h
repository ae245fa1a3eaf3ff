// PlacementProblem: shared evaluation context for all placement algorithms.
//
// Wraps the workload set, the server pool, and the CoS2 commitment; exposes
// the Section VI-B objective:
//   +1                for an unused server,
//   f(U) = U^(2 Z)    for a used server whose required capacity R fits
//                     (U = R / L, Z = CPUs on the server),
//   -N                for an overbooked server hosting N workloads.
//
// Every verdict comes from the reversible delta-evaluation engine
// (sim/incremental.h) through DeltaPlacementContext: a searcher's context
// mutates per-server exact sums in O(slots) per moved workload and
// re-verdicts only the servers an assignment actually changed, with bits
// identical to sim::required_capacity over sim::aggregate_workloads (the
// oracle the equivalence tests rebuild for themselves). Per-server verdicts
// are also memoized on the (workload set, server size) key — most subsets
// repeat across genetic generations — and the memo stores only the {fits,
// capacity} pair scoring consumes, so it stays small.
#pragma once

#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "placement/assignment.h"
#include "placement/model.h"
#include "qos/allocation.h"
#include "sim/incremental.h"
#include "sim/server.h"
#include "sim/simulator.h"

namespace ropus::placement {

class DeltaPlacementContext;

class PlacementProblem final : public PlacementModel {
 public:
  /// `workloads` and `servers` must outlive the problem. All workload
  /// calendars must match. Throws InvalidArgument on an empty pool,
  /// mismatched calendars, or a tolerance below grid::kStep (2^-20, the
  /// finest capacity search grid).
  PlacementProblem(std::span<const qos::AllocationTrace> workloads,
                   std::vector<sim::ServerSpec> servers,
                   qos::CosCommitment cos2, double capacity_tolerance = 0.05);

  std::size_t workload_count() const override { return workloads_.size(); }
  std::size_t server_count() const override { return servers_.size(); }
  const std::vector<sim::ServerSpec>& servers() const { return servers_; }
  const qos::CosCommitment& cos2() const { return cos2_; }
  double tolerance() const { return tolerance_; }
  std::span<const qos::AllocationTrace> workloads() const {
    return workloads_;
  }

  /// Sum of per-application peak allocation requests — Table I's C_peak.
  double total_peak_allocation() const override;

  /// Evaluates an assignment (validates it first) on a pooled delta
  /// context: acquire, evaluate, release.
  PlacementEvaluation evaluate(const Assignment& a) const override;

  /// First-fit-decreasing (see baselines.h) as the greedy seed.
  std::optional<Assignment> greedy_seed() const override;

  /// The delta context, as the generic interface.
  std::unique_ptr<PlacementContext> make_context() const override;

  /// The delta context, concretely — greedy placers use its probe/add
  /// surface directly.
  std::unique_ptr<DeltaPlacementContext> make_delta_context() const;

  /// Pooled checkout: released contexts are kept and handed out again, so
  /// back-to-back searches skip engine construction and workload
  /// registration. Contexts carry engine state between checkouts — harmless
  /// by the bit-equality contract, decisive for verdict-cache warmth.
  std::unique_ptr<PlacementContext> acquire_context() const override;
  void release_context(std::unique_ptr<PlacementContext> ctx) const override;

  /// f(U) = U^(2 Z) — exposed for tests and the mutation heuristic.
  static double utilization_score(double utilization, std::size_t cpus);

  std::size_t cache_entries() const {
    const std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    return cache_.size();
  }

 private:
  friend class DeltaPlacementContext;

  /// Memo lookup by borrowed key — no allocation on a hit.
  bool memo_find(std::span<const std::size_t> sorted_ids, std::size_t cpus,
                 ServerVerdict& out) const;
  /// Inserts (first writer wins; concurrent values are identical anyway —
  /// verdicts are pure functions of the key).
  void memo_store(std::span<const std::size_t> sorted_ids, std::size_t cpus,
                  ServerVerdict v) const;

  /// Scores one server given its verdict — the single place the objective
  /// arithmetic lives.
  static void score_server(ServerEvaluation& se, const ServerVerdict& v,
                           const sim::ServerSpec& spec,
                           PlacementEvaluation& ev);

  std::span<const qos::AllocationTrace> workloads_;
  std::vector<sim::ServerSpec> servers_;
  qos::CosCommitment cos2_;
  double tolerance_;
  trace::Calendar calendar_;

  struct MemoKey {
    std::vector<std::size_t> ids;  // sorted
    std::size_t cpus;
  };
  struct MemoHash {
    using is_transparent = void;
    std::size_t operator()(const MemoKey& k) const;
    std::size_t operator()(
        const std::pair<std::span<const std::size_t>, std::size_t>& k) const;
  };
  struct MemoEq {
    using is_transparent = void;
    bool operator()(const MemoKey& a, const MemoKey& b) const;
    bool operator()(
        const std::pair<std::span<const std::size_t>, std::size_t>& a,
        const MemoKey& b) const;
    bool operator()(
        const MemoKey& a,
        const std::pair<std::span<const std::size_t>, std::size_t>& b) const;
  };
  // Mutable: the memo is a performance detail invisible to callers. The
  // lock makes it safe to share between contexts on concurrent threads (the
  // genetic search evaluates a generation's offspring in parallel); lookups
  // share it, inserts take it exclusively.
  mutable std::shared_mutex cache_mutex_;
  mutable std::unordered_map<MemoKey, ServerVerdict, MemoHash, MemoEq> cache_;

  // Idle contexts for acquire_context()/release_context().
  mutable std::mutex context_pool_mutex_;
  mutable std::vector<std::unique_ptr<PlacementContext>> context_pool_;
};

/// One searcher's handle on the delta-evaluation engine. evaluate() diffs
/// the incoming assignment against the engine's current hosting, moves only
/// the changed workloads (O(slots) each), and re-verdicts only the touched
/// servers — unchanged servers hit the engine's verdict cache or the
/// problem's shared memo. probe()/add() expose the greedy placers' shape:
/// "what would this server's verdict be with workload w added" without
/// copying hosted sets around. NOT thread-safe; one context per worker.
class DeltaPlacementContext final : public PlacementContext {
 public:
  explicit DeltaPlacementContext(const PlacementProblem& problem);

  /// Bit-identical to a fresh evaluation of `a`, incrementally.
  PlacementEvaluation evaluate(const Assignment& a) override;

  /// Verdict of `server` with currently-unhosted `workload` added; engine
  /// state is unchanged. Memoized through the problem's shared memo.
  ServerVerdict probe(std::size_t server, std::size_t workload);

  /// Hosts `workload` on `server` (it must be unhosted — evaluate() hosts
  /// everything, so probe/add interleave only on fresh contexts).
  void add(std::size_t workload, std::size_t server);

  /// Removes `workload` from its server (exact-residue: the server's sums
  /// return to their previous bits).
  void remove(std::size_t workload);

  const sim::IncrementalEvaluator& engine() const { return engine_; }

 private:
  const PlacementProblem& problem_;
  sim::IncrementalEvaluator engine_;
  std::vector<std::size_t> probe_key_;  // scratch for probe() memo lookups
};

}  // namespace ropus::placement
