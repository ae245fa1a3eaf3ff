// failover_sweep: one op is FailurePlanner::plan — normal consolidation,
// then the single-failure sweep — on a 10-app, 1-week slice of the
// case-study fleet over a 13 x 16-CPU pool at theta 0.95. The capacity
// probe layer (sim) does most of the work here, so this is the workload on
// which sparse-probe and single-oracle changes must show.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "failover/planner.h"
#include "placement/baselines.h"
#include "placement/consolidator.h"
#include "placement/problem.h"
#include "qos/allocation.h"
#include "qos/translation.h"
#include "sim/simulator.h"
#include "stats.h"
#include "trace/calendar.h"
#include "workload/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fo = ropus::failover;
namespace qos = ropus::qos;
namespace sim = ropus::sim;
namespace trace = ropus::trace;

constexpr std::size_t kWeeks = 1;
constexpr std::size_t kApps = 10;
constexpr std::size_t kActiveServers = 3;
constexpr int kMaxDraws = 64;
// Input variants cycled by the ops. Sweep costs differ by variant (which
// failures the survivors can absorb), so many variants per run keep the
// run's median close to the population's whatever the workload seed.
constexpr std::size_t kVariants = 32;
constexpr std::size_t kServers = 13;
constexpr std::size_t kCpus = 16;
// A fixed search length (stagnation limit = generation limit), so every
// search in every variant runs the same number of generations.
constexpr std::size_t kPopulation = 8;
constexpr std::size_t kGenerations = 8;
constexpr std::size_t kStagnation = 8;
constexpr std::size_t kSetupReps = 3;

// Digest of variant 0's report at kDefaultSeed (report_text below).
constexpr std::uint64_t kDefaultSeedDigest = 0x9ae54da47330b8e5ull;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

qos::Requirement normal_requirement() {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = 97.0;
  return r;
}

qos::Requirement failure_requirement() {
  qos::Requirement r = normal_requirement();
  r.t_degr_minutes = 30.0;
  return r;
}

/// One input variant: an app subset and a search seed.
struct Variant {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::ApplicationQos> qos;
  std::unique_ptr<fo::FailurePlanner> planner;
  fo::PlannerConfig config;
  std::uint64_t digest = 0;  // first report's digest; later ops must match
};

struct Fleet {
  std::vector<Variant> variants;
  qos::PoolCommitments commitments;
};

/// Whether the planner's normal placement of `apps` uses exactly
/// kActiveServers. A first-fit-decreasing packing screens a draw cheaply;
/// the consolidation the planner itself runs first (same search config,
/// hence the same answer) decides.
bool uses_active_servers(const std::vector<trace::DemandTrace>& all,
                         const std::vector<std::size_t>& apps,
                         const std::vector<sim::ServerSpec>& pool,
                         const qos::CosCommitment& cos2,
                         const ropus::placement::ConsolidationConfig& search) {
  std::vector<qos::AllocationTrace> allocs;
  for (const std::size_t a : apps) {
    allocs.emplace_back(all[a], qos::translate(all[a], normal_requirement(), cos2));
  }
  const ropus::placement::PlacementProblem problem(allocs, pool, cos2);
  const auto packing = ropus::placement::first_fit_decreasing(problem);
  if (!packing ||
      ropus::placement::servers_used(*packing, pool.size()) != kActiveServers) {
    return false;
  }
  const ropus::placement::ConsolidationReport normal =
      ropus::placement::consolidate(problem, search);
  return normal.feasible && normal.servers_used == kActiveServers;
}

std::unique_ptr<Fleet> build_fleet(std::uint64_t seed, double* generate_s) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<trace::DemandTrace> all =
      ropus::workload::case_study_traces(trace::Calendar::standard(kWeeks),
                                         kFleetSeed);
  if (generate_s != nullptr) *generate_s = seconds_since(start);

  auto fleet = std::make_unique<Fleet>();
  fleet->commitments.cos2 = qos::CosCommitment{0.95, 60.0};
  const std::vector<sim::ServerSpec> pool = sim::homogeneous_pool(kServers, kCpus);
  std::uint64_t stream = seed;
  fleet->variants.resize(kVariants);
  for (Variant& v : fleet->variants) {
    // Stratified subset: the case-study apps are ordered from most to least
    // bursty, and each variant takes one app from each of kApps equal
    // strata, so every variant has the same mix of burstiness. The sweep's
    // cost is set by how many servers the normal placement uses (one
    // consolidation per active server, over the others), so subsets that
    // do not use exactly kActiveServers are drawn again.
    std::vector<std::size_t> order;
    v.config.normal.genetic.population = kPopulation;
    v.config.normal.genetic.max_generations = kGenerations;
    v.config.normal.genetic.stagnation_limit = kStagnation;
    for (int attempt = 0;; ++attempt) {
      order.clear();
      for (std::size_t k = 0; k < kApps; ++k) {
        const std::size_t lo = k * all.size() / kApps;
        const std::size_t hi = (k + 1) * all.size() / kApps;
        order.push_back(lo + splitmix(stream) % (hi - lo));
      }
      v.config.normal.genetic.seed = 1 + splitmix(stream) % 1000;
      if (uses_active_servers(all, order, pool, fleet->commitments.cos2,
                              v.config.normal)) {
        break;
      }
      if (attempt == kMaxDraws) {
        throw std::runtime_error("no app subset fits the sweep's shape");
      }
    }
    for (const std::size_t a : order) {
      v.demands.push_back(all[a]);
      qos::ApplicationQos q;
      q.app_name = all[a].name();
      q.normal = normal_requirement();
      q.failure = failure_requirement();
      v.qos.push_back(std::move(q));
    }
    v.config.failure = v.config.normal;
    v.planner = std::make_unique<fo::FailurePlanner>(
        v.demands, v.qos, fleet->commitments, pool);
  }
  return fleet;
}

std::string report_text(const fo::FailoverReport& r) {
  std::string out;
  char buf[96];
  auto put_assignment = [&](const ropus::placement::Assignment& a) {
    for (const std::size_t s : a) out += std::to_string(s) + ",";
    out += "\n";
  };
  std::snprintf(buf, sizeof buf, "normal %d %zu %a\n", r.normal.feasible ? 1 : 0,
                r.normal.servers_used, r.normal.total_required_capacity);
  out += buf;
  put_assignment(r.normal.assignment);
  for (const fo::FailureOutcome& o : r.outcomes) {
    std::snprintf(buf, sizeof buf, "fail %zu %d %zu %a\n", o.failed_server,
                  o.supported ? 1 : 0, o.servers_used,
                  o.total_required_capacity);
    out += buf;
    put_assignment(o.assignment);
  }
  out += r.spare_needed ? "spare\n" : "no-spare\n";
  return out;
}

std::uint64_t report_digest(const fo::FailoverReport& r) {
  const std::string text = report_text(r);
  return fnv1a(text.data(), text.size());
}

/// Batch required_capacity over aggregate_workloads for the apps in
/// `group`; returns {fits, capacity}.
sim::RequiredCapacity dense_verdict(
    const std::vector<qos::AllocationTrace>& allocs,
    const std::vector<std::size_t>& group, double cpus,
    const qos::CosCommitment& cos2) {
  std::vector<const qos::AllocationTrace*> ptrs;
  for (const std::size_t a : group) ptrs.push_back(&allocs[a]);
  const sim::Aggregate agg =
      sim::aggregate_workloads(ptrs, allocs.front().calendar());
  return sim::required_capacity(agg, cpus, cos2);
}

/// Re-checks every server of the normal placement and of every failure
/// outcome against the dense batch oracle. Returns "" or a description.
/// The oracle's translations are built here and freed on return, so the
/// benchmark's own memory does not dilute the program's peak RSS.
std::string check_against_oracle(const Variant& v, const fo::FailoverReport& r,
                                 const qos::CosCommitment& cos2) {
  std::vector<qos::AllocationTrace> normal_allocs;
  std::vector<qos::AllocationTrace> failure_allocs;
  for (std::size_t a = 0; a < v.demands.size(); ++a) {
    normal_allocs.emplace_back(
        v.demands[a], qos::translate(v.demands[a], v.qos[a].normal, cos2));
    failure_allocs.emplace_back(
        v.demands[a], qos::translate(v.demands[a], v.qos[a].failure, cos2));
  }
  const double cpus = static_cast<double>(kCpus);
  if (!r.normal.feasible) return "normal placement infeasible";
  for (std::size_t s = 0; s < r.normal.evaluation.servers.size(); ++s) {
    const auto& se = r.normal.evaluation.servers[s];
    if (se.workloads.empty()) continue;
    const sim::RequiredCapacity rc =
        dense_verdict(normal_allocs, se.workloads, cpus, cos2);
    if (rc.fits != se.fits || (rc.fits && rc.capacity != se.required_capacity)) {
      return "normal server " + std::to_string(s) +
             " disagrees with the dense oracle";
    }
  }
  if (r.outcomes.empty()) return "failure sweep produced no outcomes";
  for (const fo::FailureOutcome& o : r.outcomes) {
    if (o.assignment.size() != v.demands.size()) {
      return "outcome for server " + std::to_string(o.failed_server) +
             " has no full assignment";
    }
    std::vector<std::vector<std::size_t>> groups(o.surviving_servers.size());
    for (std::size_t a = 0; a < o.assignment.size(); ++a) {
      if (o.assignment[a] >= groups.size()) return "assignment out of range";
      groups[o.assignment[a]].push_back(a);
    }
    bool all_fit = true;
    double total = 0.0;
    std::size_t used = 0;
    for (const auto& group : groups) {
      if (group.empty()) continue;
      ++used;
      const sim::RequiredCapacity rc =
          dense_verdict(failure_allocs, group, cpus, cos2);
      all_fit = all_fit && rc.fits;
      if (rc.fits) total += rc.capacity;
    }
    const bool total_ok =
        std::abs(total - o.total_required_capacity) <= 1e-9 * std::max(1.0, total);
    if (all_fit != o.supported ||
        (o.supported && (!total_ok || used != o.servers_used))) {
      return "failure of server " + std::to_string(o.failed_server) +
             " disagrees with the dense oracle";
    }
  }
  return "";
}

}  // namespace

RunResult run_failover_sweep(const RunOptions& opts) {
  RunResult result;
  std::unique_ptr<Fleet> fleet;
  std::map<std::string, double> setup_parts;
  const double setup_s = measure_setup(
      opts.smoke ? 1 : kSetupReps,
      [&] {
        double generate_s = 0.0;
        fleet = build_fleet(opts.seed, &generate_s);
        return std::map<std::string, double>{{"workload.generate_s", generate_s}};
      },
      &setup_parts, [&] { fleet.reset(); });
  const qos::CosCommitment cos2 = fleet->commitments.cos2;

  LoopSpec spec;
  spec.variants = kVariants;
  if (opts.traced) spec.modes = {"traced", "untraced"};
  spec.enter_mode = [&](std::size_t mode) {
    set_tracing(opts.traced && mode == 0);
  };
  fo::FailoverReport last;  // the op's report, checked right after it
  spec.op = [&](OpSample& s) {
    Variant& v = fleet->variants[s.variant];
    const auto start = std::chrono::steady_clock::now();
    last = v.planner->plan(v.config);
    s.wall_s = seconds_since(start);
    s.extra["failover.cases"] = static_cast<double>(last.outcomes.size());
    s.extra["failover.unsupported_cases"] = static_cast<double>(
        std::count_if(last.outcomes.begin(), last.outcomes.end(),
                      [](const fo::FailureOutcome& o) { return !o.supported; }));
  };
  spec.verify = [&](OpSample& s) -> std::string {
    Variant& v = fleet->variants[s.variant];
    const std::uint64_t digest = report_digest(last);
    if (v.digest == 0) {
      v.digest = digest;
    } else if (digest != v.digest) {
      return "variant " + std::to_string(s.variant) +
             " gave different reports on repeated runs";
    }
    return check_against_oracle(v, last, cos2);
  };
  const std::vector<OpSample> samples = run_loop(opts, spec, result);
  set_tracing(false);
  const double rss = peak_rss_mb();

  // Default-seed digest, outside the timed loop: this run's own variant 0
  // at the default seed, a separately built one otherwise.
  std::uint64_t canary = fleet->variants[0].digest;
  if (opts.seed != kDefaultSeed) {
    const std::unique_ptr<Fleet> reference = build_fleet(kDefaultSeed, nullptr);
    Variant& v0 = reference->variants[0];
    canary = report_digest(v0.planner->plan(v0.config));
  }
  result.config["default_seed_digest"] = hex64(canary);
  if (canary != kDefaultSeedDigest) {
    result.fail_check("default-seed failover digest " + hex64(canary) +
                      " != recorded " + hex64(kDefaultSeedDigest));
  }

  result.config["apps"] = std::to_string(kApps);
  result.config["weeks"] = std::to_string(kWeeks);
  result.config["pool"] = std::to_string(kServers) + "x" + std::to_string(kCpus);
  result.config["variants"] = std::to_string(kVariants);
  result.config["search"] = std::to_string(kPopulation) + "/" +
                            std::to_string(kGenerations) + "/" +
                            std::to_string(kStagnation);

  if (!opts.traced) {
    summarize_end_to_end(samples, setup_s, rss, result);
    return result;
  }

  const TracedOps traced(samples, 0, kVariants);
  const TracedOps untraced(samples, 1, kVariants);
  auto& m = result.metrics;
  m["workload.generate_s"] = setup_parts["workload.generate_s"];
  for (const char* key :
       {"qos.translate.calls", "sim.required_capacity.searches",
        "sim.evaluate.calls", "sim.evaluate.slots",
        "sim.incremental.delta_verdicts", "sim.incremental.delta_probes",
        "sim.incremental.sum_rebuilds", "sim.incremental.batch_fallbacks",
        "sim.incremental.verdict_cache_hits", "placement.genetic.searches",
        "placement.genetic.evaluations", "placement.genetic.generations",
        "wlm.schedule.runs", "wlm.schedule.slots"}) {
    m[key] = traced.count(key);
  }
  const double searches = m["sim.required_capacity.searches"];
  m["sim.probes_per_search"] = searches > 0 ? m["sim.evaluate.calls"] / searches : 0;
  m["sim.slots_per_search"] = searches > 0 ? m["sim.evaluate.slots"] / searches : 0;
  const double delta = traced.count("sim.incremental.delta_verdicts") +
                       traced.count("sim.incremental.delta_probes");
  const double batch = traced.count("sim.incremental.batch_fallbacks") +
                       traced.count("sim.incremental.batch_probes");
  m["sim.incremental.delta_share"] = delta + batch > 0 ? delta / (delta + batch) : 0;
  m["placement.genetic.busy_s"] =
      traced.seconds("placement.genetic.search_seconds.sum");
  m["failover.plan.busy_s"] = traced.mean_calibrated_s();
  m["failover.cases"] = traced.extra_count("failover.cases");
  m["failover.unsupported_cases"] = traced.extra_count("failover.unsupported_cases");
  account_layers(
      traced,
      [](const OpSample& s) {
        const double translate = value_of(s.obs, "qos.translate.seconds.sum");
        const double capacity =
            value_of(s.obs, "sim.required_capacity.seconds.sum");
        const double consolidate =
            value_of(s.obs, "placement.consolidate.seconds.sum");
        return std::vector<std::pair<std::string, double>>{
            {"qos.translate.busy_s", translate},
            {"sim.required_capacity.busy_s", capacity},
            {"placement.self_s", consolidate - capacity}};
      },
      result);
  finish_traced(traced, untraced, result);
  control(m["wlm.schedule.runs"] == 0.0,
          "failover_sweep runs no wlm schedule", result);
  control(m["sim.required_capacity.searches"] > 0.0,
          "failover_sweep exercises the capacity search", result);
  return result;
}

}  // namespace perfbench
