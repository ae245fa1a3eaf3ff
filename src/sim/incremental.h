// The reversible delta-evaluation engine: per-server aggregate state that
// updates under add/remove/move of one workload in O(slots), with verdicts
// (sim::required_capacity results) bit-identical to the batch oracle.
//
// Why this works (docs/algorithms.md §11): allocation traces are snapped to
// the 2^-20 CPU grid at construction (common/grid.h), and add() and probe()
// keep the sum of a server's workload peaks — which bounds every per-slot
// total — below kGridTotalLimit, throwing InvalidArgument otherwise. So the
// per-slot sums are computed *exactly* by plain double arithmetic. Exact
// sums are order-independent and reversible: after any sequence of adds and
// removes a server's per-slot aggregate holds the same bits the batch
// `sim::aggregate_workloads` would produce, and removing a workload restores
// the previous bits. Verdicts run through the same `sim::required_capacity`
// grid search and sparse probe as the batch path — a pure function of the
// aggregate — warm-started from the server's last verdict, so a small move
// re-verdicts in a couple of probes instead of a full cold search over a
// rebuilt aggregate. There is no other path: every input the engine accepts
// is on the grid. The `stats()` tallies (also exported as
// `sim.incremental.*` obs counters) report the cache hits, rebuilds and
// searches.
//
// The engine does not own trace data: register_workload borrows the trace's
// series, which must outlive the registration (placement borrows from its
// workload list, serve from the admitted App's allocation trace; moving an
// AllocationTrace keeps its series where they are).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qos/allocation.h"
#include "qos/requirements.h"
#include "sim/simulator.h"
#include "trace/calendar.h"

namespace ropus::sim {

class IncrementalEvaluator {
 public:
  /// Work counters, mirrored into the obs registry.
  struct Stats {
    std::uint64_t verdict_cache_hits = 0;  // hosted set unchanged
    std::uint64_t delta_verdicts = 0;      // search over maintained sums
    std::uint64_t sum_rebuilds = 0;        // sums rebuilt before a verdict
    std::uint64_t delta_probes = 0;        // probe() searches
  };

  /// One engine evaluates one pool: `server_cpus[s]` is server s's capacity
  /// limit, a grid value as required_capacity requires. Workload traces must
  /// live on `calendar`.
  IncrementalEvaluator(const trace::Calendar& calendar,
                       const qos::CosCommitment& cos2,
                       std::vector<double> server_cpus,
                       double tolerance = 0.05);

  std::size_t server_count() const { return servers_.size(); }
  double server_cpus(std::size_t server) const { return servers_[server].cpus; }
  const trace::Calendar& calendar() const { return calendar_; }

  /// Registers (or re-registers) `trace` under `id`. It must live on the
  /// engine's calendar, and its series must stay valid until
  /// unregistration; the peaks come from the trace. A hosted id cannot be
  /// re-registered.
  void register_workload(std::size_t id, const qos::AllocationTrace& trace);
  void register_workload(std::size_t id, qos::AllocationTrace&&) = delete;

  /// Forgets `id` (must not be hosted).
  void unregister_workload(std::size_t id);

  bool registered(std::size_t id) const {
    return id < workloads_.size() && workloads_[id].active;
  }

  /// Host of `id`, or npos when unhosted.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t host_of(std::size_t id) const {
    return id < workloads_.size() ? workloads_[id].host : npos;
  }

  /// Hosts `id` on `server` / removes it / moves it: O(1) bookkeeping, the
  /// O(slots) series pass is queued until a verdict or probe needs the sums.
  /// add() throws InvalidArgument when the server's summed workload peaks
  /// would reach kGridTotalLimit.
  void add(std::size_t id, std::size_t server);
  void remove(std::size_t id);
  void move(std::size_t id, std::size_t server);

  /// The ids hosted on `server`, ascending — stable storage until the next
  /// mutation of that server (callers use it to key memo lookups without a
  /// copy-and-sort).
  std::span<const std::size_t> hosted(std::size_t server) const {
    return servers_[server].ids;
  }

  /// The server's verdict for its current hosted set, computed lazily and
  /// cached until the set changes. Bit-identical to
  /// `required_capacity(aggregate_workloads(traces ascending by id), cpus)`.
  const RequiredCapacity& verdict(std::size_t server);

  /// The verdict `server` would have with `id` (unhosted) temporarily
  /// added; every bit of engine state is restored before returning. Throws
  /// InvalidArgument where add() would.
  RequiredCapacity probe(std::size_t server, std::size_t id);

  const Stats& stats() const { return stats_; }

 private:
  struct Workload {
    std::span<const double> cos1;
    std::span<const double> cos2;
    double peak_cos1 = 0.0;
    double peak_total = 0.0;
    bool active = false;
    std::size_t host = npos;
  };

  /// A queued, not-yet-applied mutation of a server's sums. Mutations are
  /// deferred so callers that resolve a verdict elsewhere (the placement
  /// memo) never pay the O(slots) series pass: the queue is flushed only
  /// when a verdict or probe actually needs the sums, and exactness makes
  /// late application bit-identical to eager application.
  struct PendingOp {
    std::size_t id;
    double sign;  // +1 add, -1 remove
  };

  struct Server {
    double cpus = 0.0;
    std::vector<std::size_t> ids;  // ascending
    // Exact per-slot sums; together with `pending` they reproduce the
    // hosted set exactly.
    std::vector<double> sum1;
    std::vector<double> sum2;
    std::vector<PendingOp> pending;  // queued add/remove series passes
    double sum_peak_cos1 = 0.0;
    double peak_cos1 = 0.0;
    // Sum of the hosted workloads' peak totals: bounds every per-slot
    // total, and is itself exact (on-grid values below the limit).
    double sum_peak_total = 0.0;
    bool verdict_valid = false;
    RequiredCapacity verdict;
    double warm = -1.0;  // last satisfying capacity, the search seed
  };

  const Workload& workload_checked(std::size_t id) const;
  /// Adds (sign +1) or removes (sign -1) w's series into s's sums,
  /// recomputing the aggregate CoS1 peak in the same pass.
  void apply_series(Server& s, const Workload& w, double sign);
  /// Queues one series pass, cancelling against an opposite queued op for
  /// the same id (add-then-remove nets to nothing, exactly).
  static void queue_pending(Server& s, std::size_t id, double sign);
  /// Throws InvalidArgument unless `w` fits under the limit on `s`.
  static void require_in_range(const Server& s, const Workload& w);
  /// Brings sums up to date with the hosted set: applies the pending queue
  /// (O(slots) per op) or rebuilds from scratch when that is cheaper.
  /// Returns true when it rebuilt.
  bool ensure_sums(Server& s);
  void rebuild_sums(Server& s);
  AggregateView view_of(const Server& s, std::size_t workloads) const;

  trace::Calendar calendar_;
  qos::CosCommitment cos2_;
  double tolerance_;
  std::vector<Workload> workloads_;  // indexed by id
  std::vector<Server> servers_;
  Stats stats_;
};

}  // namespace ropus::sim
