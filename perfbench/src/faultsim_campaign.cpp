// faultsim_campaign / faultsim_recorded: one op is faultsim::Campaign::run
// with a fixed trial count on the full 26-app, 4-week case-study fleet,
// with demand surges, one cold spare and telemetry faults on.
//
// faultsim_campaign is the control for capacity-probe changes: the wlm
// replay does the work and sim only a few percent, so a sim change must
// not move it. faultsim_recorded runs the same campaign with the flight
// recorder installed at stride 1 and the default ring bound, finishing the
// recording into the state directory after each op: the only workload on
// which the recorder does work.
#include <chrono>
#include <filesystem>
#include <memory>

#include "faultsim/campaign.h"
#include "obs/recorder.h"
#include "stats.h"
#include "trace/calendar.h"
#include "workload/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = ropus::faultsim;
namespace obs = ropus::obs;
namespace qos = ropus::qos;
namespace sim = ropus::sim;
namespace trace = ropus::trace;

constexpr std::size_t kWeeks = 4;
constexpr std::size_t kServers = 13;
constexpr std::size_t kCpus = 16;
constexpr std::size_t kTrials = 4;
// Campaign seeds cycled by the ops. A trial's cost follows its sampled
// failures and surges; many seeds per run keep the run's median close to
// the population's whatever the workload seed.
constexpr std::size_t kVariants = 64;
constexpr std::size_t kSetupReps = 5;
// The recorder runs as a default `--record-out` run does: the default ring
// bound and chunk size, so an op pays the retention, page faults and
// finish() of the configuration operators use.
constexpr std::size_t kRingRecords = obs::RecorderConfig::kDefaultRingRecords;
// The traced run of faultsim_campaign fails when sim takes more than this
// share of an op: the workload is the control on which sim must not matter.
constexpr double kSimShareCeiling = 0.10;

// Digest of format_report for campaign seed variant 0 at kDefaultSeed; the
// recorded and unrecorded workloads must both produce it.
constexpr std::uint64_t kDefaultSeedDigest = 0x5297ea715b5a5abaull;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Fleet {
  std::vector<trace::DemandTrace> demands;
  std::vector<qos::ApplicationQos> qos;
  qos::PoolCommitments commitments;
  std::unique_ptr<fs::Campaign> campaign;
  std::vector<fs::CampaignConfig> configs;  // one per variant
};

fs::CampaignConfig campaign_config(std::uint64_t campaign_seed) {
  fs::CampaignConfig c;
  c.trials = kTrials;
  c.seed = campaign_seed;
  c.reliability.mtbf_hours = 500.0;
  c.reliability.mttr_hours = 10.0;
  c.surge.arrivals_per_week = 1.0;
  c.surge.magnitude = 1.5;
  c.surge.duration_hours = 4.0;
  c.replay.spare_servers = 1;
  c.replay.spare_cpus = kCpus;
  c.replay.telemetry.drop_rate = 0.01;
  c.replay.telemetry.stale_rate = 0.02;
  c.replay.telemetry.corrupt_rate = 0.005;
  c.replay.telemetry.blackout_rate = 0.001;
  return c;
}

std::unique_ptr<Fleet> build_fleet(std::uint64_t seed, double* generate_s) {
  auto fleet = std::make_unique<Fleet>();
  const auto start = std::chrono::steady_clock::now();
  fleet->demands = ropus::workload::case_study_traces(
      trace::Calendar::standard(kWeeks), kFleetSeed);
  if (generate_s != nullptr) *generate_s = seconds_since(start);
  for (const trace::DemandTrace& d : fleet->demands) {
    qos::ApplicationQos q;
    q.app_name = d.name();
    q.normal.m_percent = 97.0;
    q.failure = q.normal;
    q.failure.t_degr_minutes = 30.0;
    fleet->qos.push_back(std::move(q));
  }
  fleet->commitments.cos2 = qos::CosCommitment{0.95, 60.0};
  const std::vector<sim::ServerSpec> pool = sim::homogeneous_pool(kServers, kCpus);
  ropus::placement::Assignment assignment = fs::Campaign::plan_normal_assignment(
      fleet->demands, fleet->qos, fleet->commitments, pool);
  fleet->campaign = std::make_unique<fs::Campaign>(
      fleet->demands, fleet->qos, fleet->commitments, pool,
      std::move(assignment));
  std::uint64_t stream = seed ^ 0xFA017ull;
  for (std::size_t v = 0; v < kVariants; ++v) {
    fleet->configs.push_back(campaign_config(splitmix(stream) % 1000000));
  }
  return fleet;
}

std::uint64_t report_digest(const fs::CampaignResult& r) {
  const std::string text = fs::format_report(r);
  return fnv1a(text.data(), text.size());
}

}  // namespace

RunResult run_faultsim(const RunOptions& opts, bool recorded) {
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

  // Traced modes. faultsim_recorded adds an unrecorded mode so the traced
  // run also measures the recorder's own overhead, paired in time.
  constexpr std::size_t kTraced = 0, kUntraced = 1, kUnrecorded = 2;
  LoopSpec spec;
  spec.variants = kVariants;
  if (opts.traced) {
    spec.modes = {"traced", "untraced"};
    if (recorded) spec.modes.push_back("unrecorded");
  }
  spec.enter_mode = [&](std::size_t mode) {
    set_tracing(opts.traced && mode == kTraced);
  };
  const std::filesystem::path record_path = opts.state_dir / "flight.bin";
  std::unique_ptr<obs::Recorder> recorder;
  std::vector<std::uint64_t> digests(kVariants, 0);
  fs::CampaignResult last;
  spec.op = [&](OpSample& s) {
    const fs::CampaignConfig& config = fleet->configs[s.variant];
    if (recorded && s.mode != kUnrecorded) {
      obs::RecorderConfig rc;
      rc.path = record_path;
      rc.stride = 1;
      rc.ring_records = kRingRecords;
      recorder = std::make_unique<obs::Recorder>(rc);
      obs::Recorder::set_active(recorder.get());
    }
    const auto start = std::chrono::steady_clock::now();
    last = fleet->campaign->run(config);
    s.wall_s = seconds_since(start);
    obs::Recorder::set_active(nullptr);
    s.work = static_cast<double>(last.trials_completed);
  };
  spec.verify = [&](OpSample& s) -> std::string {
    if (recorder != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      recorder->finish();
      s.extra["obs.recorder.finish_s"] = seconds_since(start);
      s.extra["obs.recorder.appended"] = static_cast<double>(recorder->appended());
      s.extra["obs.recorder.retained"] = static_cast<double>(recorder->retained());
      s.extra["obs.recorder.bytes"] =
          static_cast<double>(std::filesystem::file_size(record_path));
      recorder.reset();
    }
    if (last.trials_completed != kTrials) return "campaign did not complete";
    // Ops cycle through the campaign seeds, so every repeat of a seed
    // re-checks that it reproduces the same report bytes.
    const std::uint64_t digest = report_digest(last);
    if (digests[s.variant] == 0) {
      digests[s.variant] = digest;
    } else if (digests[s.variant] != digest) {
      return "campaign seed " + std::to_string(fleet->configs[s.variant].seed) +
             " gave different report bytes on a repeat";
    }
    return "";
  };
  const std::vector<OpSample> samples = run_loop(opts, spec, result);
  set_tracing(false);
  const double rss = peak_rss_mb();
  if (digests[0] != 0) {
    // Short runs may not come back to a campaign seed; repeat one here so
    // the repeat check always runs.
    if (report_digest(fleet->campaign->run(fleet->configs[0])) != digests[0]) {
      result.fail_check("campaign seed repeat gave different report bytes");
    }
  }

  std::uint64_t canary = digests[0];
  if (opts.seed != kDefaultSeed) {
    const std::unique_ptr<Fleet> reference = build_fleet(kDefaultSeed, nullptr);
    canary = report_digest(reference->campaign->run(reference->configs[0]));
  }
  result.config["default_seed_digest"] = hex64(canary);
  if (canary != kDefaultSeedDigest) {
    result.fail_check("default-seed faultsim digest " + hex64(canary) +
                      " != recorded " + hex64(kDefaultSeedDigest));
  }

  result.config["apps"] = std::to_string(fleet->demands.size());
  result.config["weeks"] = std::to_string(kWeeks);
  result.config["pool"] = std::to_string(kServers) + "x" + std::to_string(kCpus);
  result.config["trials"] = std::to_string(kTrials);
  result.config["variants"] = std::to_string(kVariants);
  result.config["recorder"] =
      recorded ? "stride=1,ring=" + std::to_string(kRingRecords) : "off";

  if (!opts.traced) {
    summarize_end_to_end(samples, setup_s, rss, result);
    return result;
  }

  const TracedOps traced(samples, kTraced, kVariants);
  const TracedOps untraced(samples, kUntraced, kVariants);
  auto& m = result.metrics;
  m["workload.generate_s"] = setup_parts["workload.generate_s"];
  for (const char* key :
       {"qos.translate.calls", "sim.required_capacity.searches",
        "sim.evaluate.calls", "sim.evaluate.slots", "faultsim.trials",
        "wlm.schedule.runs", "wlm.schedule.slots",
        "wlm.controller.fallback_activations", "faultsim.telemetry.stale",
        "faultsim.telemetry.missing", "faultsim.telemetry.corrupt",
        "placement.genetic.searches"}) {
    m[key] = traced.count(key);
  }
  m["faultsim.trial.events"] = traced.count("faultsim.trial.events.sum");
  const double searches = m["sim.required_capacity.searches"];
  m["sim.probes_per_search"] = searches > 0 ? m["sim.evaluate.calls"] / searches : 0;
  m["sim.slots_per_search"] = searches > 0 ? m["sim.evaluate.slots"] / searches : 0;
  m["faultsim.trial.busy_s"] = traced.seconds("faultsim.trial_seconds.sum");
  m["obs.recorder.appended"] = traced.extra_count("obs.recorder.appended");
  m["obs.recorder.retained"] = traced.extra_count("obs.recorder.retained");
  m["obs.recorder.bytes"] = traced.extra_count("obs.recorder.bytes");
  m["obs.recorder.finish_s"] = traced.extra_seconds("obs.recorder.finish_s");
  if (recorded) {
    m["obs.recorder.overhead_pct"] =
        overhead_pct(untraced, TracedOps(samples, kUnrecorded, kVariants));
  }
  account_layers(
      traced,
      [](const OpSample& s) {
        const double trials = value_of(s.obs, "faultsim.trial_seconds.sum");
        const double schedule = value_of(s.obs, "wlm.schedule.seconds.sum");
        const double capacity =
            value_of(s.obs, "sim.required_capacity.seconds.sum");
        return std::vector<std::pair<std::string, double>>{
            {"wlm.schedule.busy_s", schedule},
            {"sim.required_capacity.busy_s", capacity},
            {"qos.translate.busy_s",
             value_of(s.obs, "qos.translate.seconds.sum")},
            {"faultsim.self_s", trials - schedule}};
      },
      result);
  finish_traced(traced, untraced, result);

  control(m["wlm.schedule.runs"] > 0.0, "faultsim replays wlm schedules", result);
  if (recorded) {
    control(m["obs.recorder.appended"] > 0.0,
            "faultsim_recorded appends flight-recorder records", result);
  } else {
    control(m["obs.recorder.appended"] == 0.0,
            "faultsim_campaign appends no flight-recorder records", result);
    const double share =
        m["sim.required_capacity.busy_s"] / traced.mean_calibrated_s();
    result.diagnostics["sim_busy_share"] = share;
    control(share < kSimShareCeiling,
            "faultsim_campaign sim busy share under the ceiling", result);
  }
  return result;
}

}  // namespace perfbench
