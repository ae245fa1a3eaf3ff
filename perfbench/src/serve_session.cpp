// serve_session: one client in a closed loop over a Unix-domain socket
// against an in-process SocketServer (journal, checkpoints at the daemon's
// default interval, compaction on). The script admits the case-study apps,
// then sends ticks carrying per-app demand readings, with depart/re-admit
// churn and occasional `stats` reads mixed in. One op is one request: the
// online path of parse -> journal -> arbiter/admission -> emit, with no
// genetic search. Two threads: the client (this one) and the server.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "calibration.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "stats.h"
#include "trace/calendar.h"
#include "workload/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sv = ropus::serve;
namespace trace = ropus::trace;

constexpr std::size_t kProfileWeeks = 1;
// The request mix. The repository holds no recorded operator session to
// take it from, so these ratios are assumptions, not measurements: they
// make every request kind occur many times in a run.
constexpr std::size_t kDepartEvery = 64;   // ticks between departures
constexpr std::size_t kReadmitAfter = 16;  // ticks until the app returns
constexpr std::uint64_t kStatsOneIn = 16;  // stats reads per tick
// Length of a calibration window of requests.
constexpr double kWindowSeconds = 0.1;
// Traced counts are taken over the session's first this-many requests, so
// they repeat exactly for a seed.
constexpr std::size_t kCountPrefix = 3000;
// The default-seed digest covers the replies to this many requests plus
// the arbiter summary after them.
constexpr std::size_t kDigestRequests = 2000;
constexpr std::size_t kSetupReps = 9;
// Set-up restarts the daemon over the state a previous life left after at
// least this many requests (the admissions and more than a day of ticks),
// so it recovers from a checkpoint plus a journal tail, as an operator's
// restart does. The session continues the script from there.
constexpr std::size_t kMinHistoryRequests = 400;
// The daemon's memory grows with the slots it has seen, so peak RSS is read
// after this many requests, not at the end of a run whose length depends
// on the host's speed.
constexpr std::size_t kRssRequests = 20000;

constexpr std::uint64_t kDefaultSeedDigest = 0x8d7349b249153bbcull;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sv::ServeConfig serve_config() {
  ropus::qos::Requirement normal;
  normal.m_percent = 97.0;
  ropus::qos::Requirement failure = normal;
  failure.t_degr_minutes = 30.0;
  sv::ServeConfig c;
  c.normal = sv::band_of(normal);
  c.failure = sv::band_of(failure);
  c.cos2 = ropus::qos::CosCommitment{0.95, 60.0};
  c.minutes_per_sample = 5.0;
  c.slots_per_day = 288;
  c.servers = 13;
  c.server_cpus = 16.0;
  c.validate();
  return c;
}

sv::DaemonOptions daemon_options(const fs::path& dir) {
  sv::DaemonOptions o;
  o.checkpoint_path = dir / "serve.ckpt";
  o.journal_path = dir / "serve.journal";
  // Checkpoints keep the daemon's default interval. Compaction bounds the
  // journal to about one interval of frames, as in chaos_drill's socket
  // campaign; without it the journal grows with the run's request count.
  o.compact_journal = true;
  o.validate();
  return o;
}

enum class Kind { kAdmit, kTick, kDepart, kStats };

/// The request script: a deterministic function of the seed and of the
/// replies seen so far (an app joins the tick readings once admitted).
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed ^ 0x5E57Eull) {
    const trace::Calendar cal = trace::Calendar::standard(kProfileWeeks);
    for (const trace::DemandTrace& t :
         ropus::workload::case_study_traces(cal, kFleetSeed)) {
      App app;
      app.name = t.name();
      app.demand.assign(t.values().begin(), t.values().end());
      app.profile = ",\"app\":\"" + app.name + "\",\"profile\":[";
      char buf[32];
      for (std::size_t i = 0; i < app.demand.size(); ++i) {
        std::snprintf(buf, sizeof buf, i == 0 ? "%.4f" : ",%.4f", app.demand[i]);
        app.profile += buf;
      }
      app.profile += "]}";
      apps_.push_back(std::move(app));
    }
    for (std::size_t i = 0; i < apps_.size(); ++i) queue_.push_back({i, 0});
    for (std::size_t i = apps_.size() - 1; i > 0; --i) {
      std::swap(queue_[i], queue_[splitmix(rng_) % (i + 1)]);
    }
  }

  /// The next request line; its kind is last_kind().
  std::string next() {
    const std::string id = std::to_string(sent_++);
    auto head = [&](const char* type) {
      return std::string("{\"type\":\"") + type + "\",\"id\":\"r" + id + "\"";
    };
    if (!queue_.empty() && queue_.front().due <= ticks_) {
      pending_ = queue_.front().app;
      queue_.erase(queue_.begin());
      kind_ = Kind::kAdmit;
      return head("admit") + apps_[pending_].profile;
    }
    if (stats_due_) {
      stats_due_ = false;
      kind_ = Kind::kStats;
      return head("stats") + "}";
    }
    if (depart_due_) {
      depart_due_ = false;
      std::vector<std::size_t> admitted;
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        if (apps_[i].admitted) admitted.push_back(i);
      }
      if (!admitted.empty()) {
        pending_ = admitted[splitmix(rng_) % admitted.size()];
        kind_ = Kind::kDepart;
        return head("depart") + ",\"app\":\"" + apps_[pending_].name + "\"}";
      }
    }
    kind_ = Kind::kTick;
    std::string line = head("tick") + ",\"slot\":" + std::to_string(ticks_) +
                       ",\"demand\":{";
    bool first = true;
    char buf[32];
    for (const App& app : apps_) {
      if (!app.admitted) continue;
      std::snprintf(buf, sizeof buf, "%.4f",
                    app.demand[ticks_ % app.demand.size()]);
      line += (first ? "\"" : ",\"") + app.name + "\":" + buf;
      first = false;
    }
    ++ticks_;
    stats_due_ = splitmix(rng_) % kStatsOneIn == 0;
    depart_due_ = ticks_ % kDepartEvery == 0;
    return line + "}}";
  }

  /// Feeds the replies to the last request back into the script.
  void observe(const std::vector<std::string>& replies) {
    if (kind_ == Kind::kAdmit) {
      const bool rejected =
          replies.empty() ||
          replies.front().find("\"decision\":\"rejected\"") != std::string::npos;
      if (rejected) {
        queue_.push_back({pending_, ticks_ + kReadmitAfter});
      } else {
        apps_[pending_].admitted = true;
      }
    } else if (kind_ == Kind::kDepart) {
      apps_[pending_].admitted = false;
      queue_.push_back({pending_, ticks_ + kReadmitAfter});
    }
    counts_[static_cast<std::size_t>(kind_)] += 1;
  }

  Kind last_kind() const { return kind_; }
  std::size_t sent() const { return sent_; }
  std::size_t count(Kind k) const { return counts_[static_cast<std::size_t>(k)]; }

 private:
  struct App {
    std::string name;
    std::vector<double> demand;
    std::string profile;  // the admit line's tail
    bool admitted = false;
  };
  struct Admission {
    std::size_t app;
    std::size_t due;  // tick count at which to send it
  };
  std::uint64_t rng_;
  std::vector<App> apps_;
  std::vector<Admission> queue_;
  std::size_t ticks_ = 0;
  std::size_t sent_ = 0;
  std::size_t pending_ = 0;
  bool stats_due_ = false;
  bool depart_due_ = false;
  Kind kind_ = Kind::kTick;
  std::size_t counts_[4] = {0, 0, 0, 0};
};

bool is_stats(const std::string& reply) {
  return reply.rfind("{\"type\":\"stats\"", 0) == 0;
}

bool is_error(const std::string& reply) {
  return reply.rfind("{\"type\":\"error\"", 0) == 0;
}

/// Folds replies (stats excluded: they carry timings) into `hash`.
std::uint64_t fold(const std::vector<std::string>& replies, std::uint64_t hash) {
  for (const std::string& r : replies) {
    if (is_stats(r)) continue;
    hash = fnv1a(r.data(), r.size(), hash);
    hash = fnv1a("\n", 1, hash);
  }
  return hash;
}

/// Replies of an in-process DaemonCore, end marker removed.
std::vector<std::string> core_replies(sv::DaemonCore& core,
                                      const std::string& line) {
  std::vector<std::string> replies = core.process_line(line, false).replies;
  if (!replies.empty()) replies.pop_back();  // every request carries an id
  return replies;
}

/// Digest of the first kDigestRequests replies of `seed`'s script through
/// an in-process core without persistence, plus the summary after them.
std::uint64_t reference_digest(std::uint64_t seed) {
  Script script(seed);
  sv::DaemonCore core(serve_config(), sv::DaemonOptions{});
  std::uint64_t hash = fnv1a("", 0);
  for (std::size_t i = 0; i < kDigestRequests; ++i) {
    const std::vector<std::string> replies = core_replies(core, script.next());
    script.observe(replies);
    hash = fold(replies, hash);
  }
  const std::string summary = core.arbiter().summary();
  return fnv1a(summary.data(), summary.size(), hash);
}

/// Leaves in `dir` the state of a daemon that served the first
/// kMinHistoryRequests of `seed`'s script, and more until its journal holds
/// frames past the last checkpoint, and then died (checkpoint plus journal
/// tail). Returns the replies it sent.
std::vector<std::vector<std::string>> write_history(std::uint64_t seed,
                                                    const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Script script(seed);
  sv::DaemonCore core(serve_config(), daemon_options(dir));
  std::vector<std::vector<std::string>> replies;
  while (replies.size() < kMinHistoryRequests || core.journal_tail_frames() == 0) {
    replies.push_back(core_replies(core, script.next()));
    script.observe(replies.back());
  }
  return replies;
}

/// The socket server on its own thread; stopped and joined on destruction.
class Server {
 public:
  Server(const fs::path& dir, const std::string& socket_path, const cpu_set_t& cpus) {
    sv::TransportOptions transport;
    transport.unix_path = socket_path;
    transport.validate();
    server_ = std::make_unique<sv::SocketServer>(serve_config(),
                                                 daemon_options(dir), transport);
    thread_ = std::thread([this, cpus] {
      ::pthread_setaffinity_np(::pthread_self(), sizeof cpus, &cpus);
      try {
        exit_code_ = server_->run(err_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    server_->request_stop();
    thread_.join();
  }
  /// How the daemon recovered; set in construction, before the thread runs.
  const sv::RecoveryReport& recovery() const { return server_->core().recovery(); }
  /// Joins after a shutdown request; returns the server's failure, if any.
  std::string join() {
    if (thread_.joinable()) thread_.join();
    if (!error_.empty()) return error_;
    return exit_code_ == 0 ? "" : "server exited with " + std::to_string(exit_code_);
  }

 private:
  std::unique_ptr<sv::SocketServer> server_;
  std::ostringstream err_;
  std::string error_;
  int exit_code_ = -1;
  std::thread thread_;
};

struct Window {
  std::size_t first = 0;  // index of its first request
  std::size_t mode = 0;
  OpSample sample;        // traced run: wall = summed round trips, obs deltas
};

}  // namespace

RunResult run_serve_session(const RunOptions& opts) {
  RunResult result;
  const fs::path live_dir = opts.state_dir / "live";
  const std::string socket_path = (opts.state_dir / "serve.sock").string();
  std::unique_ptr<Script> script;
  std::unique_ptr<Server> server;
  std::map<std::string, double> setup_parts;
  // Client and server share one CPU for the session: a round trip is then
  // two context switches on one core instead of two cross-core wake-ups,
  // whose latency on a shared host varies far more than the work does.
  cpu_set_t session_cpus;
  CPU_ZERO(&session_cpus);
  CPU_SET(static_cast<std::size_t>(std::max(::sched_getcpu(), 0)), &session_cpus);
  cpu_set_t saved_cpus;
  ::pthread_getaffinity_np(::pthread_self(), sizeof saved_cpus, &saved_cpus);
  // Set-up: build the script (trace generation included), bring it to where
  // the previous daemon life stopped, and restart the daemon over that
  // life's state, recovering from its checkpoint and journal tail.
  const fs::path history_dir = opts.state_dir / "history";
  const std::vector<std::vector<std::string>> history =
      write_history(opts.seed, history_dir);
  auto restore_history = [&] {
    server.reset();
    fs::remove_all(live_dir);
    fs::copy(history_dir, live_dir, fs::copy_options::recursive);
  };
  restore_history();
  const double setup_s = measure_setup(
      opts.smoke ? 1 : kSetupReps,
      [&] {
        const double start = now_seconds();
        script = std::make_unique<Script>(opts.seed);
        const double generate_s = now_seconds() - start;
        for (const std::vector<std::string>& replies : history) {
          script->next();
          script->observe(replies);
        }
        server = std::make_unique<Server>(live_dir, socket_path, session_cpus);
        return std::map<std::string, double>{{"workload.generate_s", generate_s}};
      },
      &setup_parts, restore_history);
  if (server->recovery().mode != sv::RecoveryMode::kCheckpointAndTail ||
      server->recovery().replayed == 0) {
    result.fail_check("daemon did not recover from a checkpoint and journal tail");
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof session_cpus, &session_cpus);

  sv::ClientOptions copts;
  copts.unix_path = socket_path;
  copts.deadline_s = 30.0;
  sv::Client client(copts);

  std::vector<float> rtt;  // per request, raw seconds
  std::vector<Window> windows;
  std::vector<double> window_kernel;
  std::uint64_t hash = fnv1a("", 0);
  for (const std::vector<std::string>& replies : history) hash = fold(replies, hash);
  std::uint64_t failed = 0;
  std::string first_failure;
  ObsValues prefix_start = read_obs();
  ObsValues prefix_end;
  double rss = 0.0;
  const std::size_t min_requests = samples_for_tail(0.9);
  double kernel_prev = run_calibration_kernel();
  const double start = now_seconds();
  for (std::size_t w = 0;; ++w) {
    const double elapsed = now_seconds() - start;
    if (elapsed >= opts.seconds && rtt.size() >= min_requests &&
        (!opts.traced || w >= 2)) {
      break;
    }
    if (elapsed >= 100.0) break;
    Window win;
    win.first = rtt.size();
    win.mode = opts.traced ? w % 2 : 0;
    set_tracing(opts.traced && win.mode == 0);
    const ObsValues before = opts.traced ? read_obs() : ObsValues{};
    const double window_start = now_seconds();
    double wall = 0.0;
    while (now_seconds() - window_start < kWindowSeconds) {
      const std::string line = script->next();
      std::vector<std::string> replies;
      const double t0 = now_seconds();
      try {
        replies = client.transact(line);
      } catch (const std::exception& e) {
        if (first_failure.empty()) first_failure = std::string("transport: ") + e.what();
        ++failed;
      }
      const double t1 = now_seconds();
      rtt.push_back(static_cast<float>(t1 - t0));
      wall += t1 - t0;
      for (const std::string& r : replies) {
        if (is_error(r)) {
          if (first_failure.empty()) first_failure = "error reply: " + r;
          ++failed;
          break;
        }
      }
      script->observe(replies);
      hash = fold(replies, hash);
      if (rtt.size() == kCountPrefix) prefix_end = read_obs();
      if (rtt.size() == kRssRequests) rss = peak_rss_mb();
    }
    const double kernel_next = run_calibration_kernel();
    window_kernel.push_back(0.5 * (kernel_prev + kernel_next));
    kernel_prev = kernel_next;
    if (opts.traced) {
      win.sample.mode = win.mode;
      win.sample.wall_s = wall;
      win.sample.kernel_s = window_kernel.back();
      win.sample.work = static_cast<double>(rtt.size() - win.first);
      win.sample.obs = obs_delta(before, read_obs());
    }
    windows.push_back(std::move(win));
  }
  set_tracing(false);
  if (prefix_end.empty()) prefix_end = read_obs();
  const ObsValues session_end = read_obs();
  if (rss == 0.0) rss = peak_rss_mb();

  // Shut the daemon down; its closing line is the summary.
  std::string summary;
  try {
    client.transact("{\"type\":\"shutdown\",\"id\":\"bye\"}");
    summary = client.read_closing_line();
  } catch (const std::exception& e) {
    result.fail_check(std::string("shutdown failed: ") + e.what());
  }
  const std::string server_failure = server->join();
  if (!server_failure.empty()) result.fail_check("server: " + server_failure);
  ::pthread_setaffinity_np(::pthread_self(), sizeof saved_cpus, &saved_cpus);

  const std::size_t requests = rtt.size();
  result.attempted = requests;
  result.failed = failed;
  if (!first_failure.empty()) result.fail_check(first_failure);

  // Byte-identity: the same script through an in-process core replica. The
  // traced run gives it the daemon's own persistence options, so its timing
  // (serve.core.process_us) and journal counts match the daemon's work;
  // persistence never changes reply bytes.
  const fs::path replica_dir = opts.state_dir / "replica";
  fs::create_directories(replica_dir);
  const sv::DaemonOptions replica_options =
      opts.traced ? daemon_options(replica_dir) : sv::DaemonOptions{};
  // Replicas replay the whole script, history included; timings and counts
  // cover the session's requests (the first kCountPrefix for counts).
  const std::size_t total = script->sent();
  const std::size_t history_n = history.size();
  const std::size_t count_end = history_n + std::min(requests, kCountPrefix);
  double core_busy = 0.0;
  double journal_frames_prefix = 0.0;
  double journaled_bytes_prefix = 0.0;
  const double core_kernel_before = run_calibration_kernel();
  {
    Script replay(opts.seed);
    sv::DaemonCore core(serve_config(), replica_options);
    std::uint64_t replica_hash = fnv1a("", 0);
    for (std::size_t i = 0; i < total; ++i) {
      const std::string line = replay.next();
      const std::uint64_t entries = core.journal_entries();
      const double t0 = now_seconds();
      std::vector<std::string> replies = core.process_line(line, false).replies;
      if (i >= history_n) core_busy += now_seconds() - t0;
      if (!replies.empty()) replies.pop_back();
      replay.observe(replies);
      replica_hash = fold(replies, replica_hash);
      if (i < history_n || i >= count_end) continue;
      if (core.journal_entries() > entries) {
        journal_frames_prefix += 1.0;
        journaled_bytes_prefix += static_cast<double>(line.size());
      }
    }
    if (replica_hash != hash) {
      result.fail_check("socket reply stream differs from the in-process replica");
    }
    if (!summary.empty() && summary != core.arbiter().summary()) {
      result.fail_check("socket summary differs from the in-process replica");
    }
    if (summary.empty()) result.fail_check("no summary line at shutdown");
  }
  const double core_kernel =
      0.5 * (core_kernel_before + run_calibration_kernel());

  const std::uint64_t canary = reference_digest(kDefaultSeed);
  result.config["default_seed_digest"] = hex64(canary);
  if (canary != kDefaultSeedDigest) {
    result.fail_check("default-seed serve digest " + hex64(canary) +
                      " != recorded " + hex64(kDefaultSeedDigest));
  }
  result.config["apps"] = "26";
  result.config["weeks"] = std::to_string(kProfileWeeks);
  result.config["pool"] = "13x16";
  result.config["script"] = "depart/" + std::to_string(kDepartEvery) +
                            ",readmit/" + std::to_string(kReadmitAfter) +
                            ",stats/" + std::to_string(kStatsOneIn) +
                            ",checkpoint/" +
                            std::to_string(sv::DaemonOptions{}.checkpoint_every_slots);
  result.config["transport"] = "uds,closed-loop,1-client";

  // One op sample per request, calibrated by its window's kernel runs.
  std::vector<OpSample> samples;
  samples.reserve(requests);
  std::vector<double> window_rate;  // requests per calibrated second
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::size_t end = w + 1 < windows.size() ? windows[w + 1].first : requests;
    double calibrated_total = 0.0;
    for (std::size_t i = windows[w].first; i < end; ++i) {
      OpSample sample;
      sample.mode = windows[w].mode;
      sample.wall_s = rtt[i];
      sample.kernel_s = window_kernel[w];
      calibrated_total += sample.calibrated_s();
      samples.push_back(std::move(sample));
    }
    if (calibrated_total > 0.0) {
      window_rate.push_back(static_cast<double>(end - windows[w].first) /
                            calibrated_total);
    }
  }

  if (!opts.traced) {
    // Throughput is the median over windows: one stalled window (a
    // page-cache flush, a descheduled vCPU) moves it by one rank, not by
    // its length.
    summarize_end_to_end(samples, setup_s, rss, result, median(window_rate));
    return result;
  }

  // Traced run: per-layer metrics.
  std::vector<OpSample> window_samples;
  for (const Window& w : windows) window_samples.push_back(w.sample);
  const TracedOps traced_windows(window_samples, 0, 1);
  double traced_requests = 0.0;
  for (const OpSample* s : traced_windows.ops()) traced_requests += s->work;
  auto& m = result.metrics;
  m["workload.generate_s"] = setup_parts["workload.generate_s"];
  const ObsValues prefix = obs_delta(prefix_start, prefix_end);
  const double prefix_n = static_cast<double>(std::min(requests, kCountPrefix));
  for (const char* key :
       {"qos.translate.calls", "sim.required_capacity.searches",
        "sim.evaluate.calls", "sim.evaluate.slots",
        "sim.incremental.delta_verdicts", "sim.incremental.delta_probes",
        "sim.incremental.sum_rebuilds", "sim.incremental.batch_fallbacks",
        "sim.incremental.verdict_cache_hits", "wlm.schedule.runs",
        "wlm.schedule.slots", "wlm.controller.fallback_activations",
        "serve.checkpoints", "placement.genetic.searches"}) {
    m[key] = value_of(prefix, key) / prefix_n;
  }
  const double searches = value_of(prefix, "sim.required_capacity.searches");
  m["sim.probes_per_search"] =
      searches > 0 ? value_of(prefix, "sim.evaluate.calls") / searches : 0;
  m["sim.slots_per_search"] =
      searches > 0 ? value_of(prefix, "sim.evaluate.slots") / searches : 0;
  const double delta = value_of(prefix, "sim.incremental.delta_verdicts") +
                       value_of(prefix, "sim.incremental.delta_probes");
  const double batch = value_of(prefix, "sim.incremental.batch_fallbacks") +
                       value_of(prefix, "sim.incremental.batch_probes");
  m["sim.incremental.delta_share"] = delta + batch > 0 ? delta / (delta + batch) : 0;
  const double accepted = value_of(prefix, "serve.admission.accepted") +
                          value_of(prefix, "serve.admission.renegotiated");
  const double decided = accepted + value_of(prefix, "serve.admission.rejected");
  m["serve.admission.accept_share"] = decided > 0 ? accepted / decided : 0;
  m["serve.journal.frames"] = journal_frames_prefix / prefix_n;
  m["serve.journal.bytes"] = journaled_bytes_prefix / prefix_n;
  m["serve.core.process_us"] =
      calibrated_seconds(core_busy, core_kernel) / static_cast<double>(requests) * 1e6;

  // The live daemon's own request timers cover parse through emit; what a
  // round trip spends beyond them is transport and client.
  static const char* const kRequestTimers[] = {
      "serve.request.tick_seconds.sum", "serve.request.admit_seconds.sum",
      "serve.request.depart_seconds.sum", "serve.request.stats_seconds.sum",
      "serve.request.evict_seconds.sum", "serve.request.checkpoint_seconds.sum",
      "serve.request.invalid_seconds.sum"};
  auto core_seconds = [](const OpSample& s) {
    double sum = 0.0;
    for (const char* key : kRequestTimers) sum += value_of(s.obs, key);
    return sum;
  };
  account_layers(
      traced_windows,
      [&](const OpSample& s) {
        const double core = core_seconds(s);
        const double translate = value_of(s.obs, "qos.translate.seconds.sum");
        const double capacity = value_of(s.obs, "sim.required_capacity.seconds.sum");
        const double checkpoint =
            value_of(s.obs, "serve.checkpoint.duration_seconds.sum");
        return std::vector<std::pair<std::string, double>>{
            {"qos.translate.busy_s", translate},
            {"sim.required_capacity.busy_s", capacity},
            {"serve.checkpoint.busy_s", checkpoint},
            {"serve.core.self_s", core - translate - capacity - checkpoint}};
      },
      result, traced_requests);
  m["serve.transport.overhead_us"] = m["unattributed_s"] * 1e6;

  // Replicas fed the same script, timed per layer: parse alone, and the
  // arbiter alone (parse outside the timer).
  {
    Script replay(opts.seed);
    sv::Arbiter arbiter(serve_config());
    double parse = 0.0;
    double by_kind[4] = {0, 0, 0, 0};
    double n_kind[4] = {0, 0, 0, 0};
    const double k0 = run_calibration_kernel();
    for (std::size_t i = 0; i < total; ++i) {
      const std::string line = replay.next();
      const double t0 = now_seconds();
      const sv::Message msg = sv::parse_message(line);
      const double t1 = now_seconds();
      const std::vector<std::string> replies = arbiter.handle(msg);
      const double t2 = now_seconds();
      replay.observe(replies);
      if (i < history_n) continue;
      parse += t1 - t0;
      const auto k = static_cast<std::size_t>(replay.last_kind());
      by_kind[k] += t2 - t1;
      n_kind[k] += 1;
    }
    const double kernel = 0.5 * (k0 + run_calibration_kernel());
    auto us = [&](double seconds, double n) {
      return n > 0 ? calibrated_seconds(seconds, kernel) / n * 1e6 : 0.0;
    };
    m["serve.protocol.parse_us"] = us(parse, static_cast<double>(requests));
    m["serve.arbiter.admit_us"] = us(by_kind[0], n_kind[0]);
    m["serve.arbiter.tick_us"] = us(by_kind[1], n_kind[1]);
    m["serve.arbiter.depart_us"] = us(by_kind[2], n_kind[2]);
  }

  finish_traced(TracedOps(samples, 0, 1), TracedOps(samples, 1, 1), result);

  const ObsValues session = obs_delta(prefix_start, session_end);
  control(script->count(Kind::kAdmit) > 0 && script->count(Kind::kDepart) > 0 &&
              script->count(Kind::kTick) > 0 && script->count(Kind::kStats) > 0,
          "serve_session sends admits, departs, ticks and stats", result);
  control(value_of(session, "serve.checkpoints") > 0,
          "serve_session takes at least one checkpoint", result);
  // Admission asks the arbiter's persistent engine for probes, which count
  // as delta_probes; delta_verdicts stay 0 on this path.
  control(value_of(session, "sim.incremental.delta_probes") +
                  value_of(session, "sim.incremental.delta_verdicts") >
              0,
          "serve_session admits through the delta engine", result);
  return result;
}

}  // namespace perfbench
