// Timing machinery shared by the workloads: calibrated set-up, the closed
// loop of calibrated ops, obs-registry deltas for the traced run, and the
// reduction of samples to the catalogue's metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

/// The seed whose outputs the benchmark carries digests for.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Largest negative unattributed share the layer accounting tolerates: the
/// named layers are exclusive, so their sum may exceed the op's wall time
/// only by clock-read jitter.
inline constexpr double kLayerAccountingTolerance = 0.02;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  /// Short run for the harness's own smoke test: a few ops, relaxed
  /// sample-count rules, every check still on.
  bool smoke = false;
  std::filesystem::path state_dir;  // scratch space inside the checkout
};

/// Counter values and histogram sums/counts of the global obs registry,
/// keyed "<counter>", "<histogram>.sum", "<histogram>.count".
using ObsValues = std::map<std::string, double>;
ObsValues read_obs();
/// after - before per key (keys missing on one side count as 0).
ObsValues obs_delta(const ObsValues& before, const ObsValues& after);
double value_of(const ObsValues& values, const std::string& key);

/// Turns obs timing and span collection on or off together.
void set_tracing(bool on);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Runs `setup` `reps` times, each bracketed by kernel runs, and returns
/// the median calibrated time. `setup` returns raw times of named parts
/// (e.g. "workload.generate_s"); their calibrated medians land in `parts`.
/// `teardown`, when given, runs before each repetition after the first,
/// outside the timed region (e.g. stopping the previous daemon).
double measure_setup(std::size_t reps,
                     const std::function<std::map<std::string, double>()>& setup,
                     std::map<std::string, double>* parts,
                     const std::function<void()>& teardown = {});

/// One timed op. The workload's op function fills wall_s (the exact call
/// under test), work (items completed) and any per-op extras; the harness
/// fills the rest.
struct OpSample {
  std::size_t variant = 0;
  std::size_t mode = 0;
  double wall_s = 0.0;
  double kernel_s = 0.0;  // mean of the adjacent kernel runs
  double work = 1.0;
  bool failed = false;
  ObsValues obs;                        // traced run only
  std::map<std::string, double> extra;  // workload-specific per-op values
  double calibrated_s() const;
  double scale() const;  // calibrated seconds per raw second for this op
};

struct LoopSpec {
  std::size_t variants = 1;
  /// Names of the op modes the loop cycles through (op n runs mode
  /// n % modes, variant (n / modes) % variants). Untraced runs have one.
  std::vector<std::string> modes{"untraced"};
  /// Switches the process into mode `m` before an op (tracing, recorder).
  std::function<void(std::size_t mode)> enter_mode = [](std::size_t) {};
  /// Runs one op; throws on failure. Must set sample.wall_s.
  std::function<void(OpSample& sample)> op;
  /// Checks the op's outputs outside the timed region; returns a failure
  /// description or "".
  std::function<std::string(OpSample& sample)> verify;
};

/// Runs the closed loop for opts.seconds (and at least the samples the
/// tail rule needs, or one full variants x modes cycle when traced), and
/// ends on a whole cycle, so every variant weighs the same in the medians.
/// Check failures are appended to `result`.
std::vector<OpSample> run_loop(const RunOptions& opts, const LoopSpec& spec,
                               RunResult& result);

/// Fills the end-to-end metrics from untraced samples. `rss_mb` is the
/// peak RSS the workload read once its own memory was at its steady size.
/// work_per_s is work per calibrated second over whole variant cycles
/// unless the workload passes its own `work_per_s`.
void summarize_end_to_end(const std::vector<OpSample>& samples,
                          double setup_s, double rss_mb, RunResult& result,
                          std::optional<double> work_per_s = std::nullopt);

/// Helpers over the traced run's samples of one mode.
class TracedOps {
 public:
  TracedOps(const std::vector<OpSample>& samples, std::size_t mode,
            std::size_t variants);
  /// Mean over one op of each variant (the first complete cycle), so the
  /// value repeats exactly for a seed: for counts.
  double count(const std::string& key) const;
  /// Mean calibrated seconds of an obs time (histogram sum) per op.
  double seconds(const std::string& key) const;
  /// Mean calibrated value of a per-op extra holding raw seconds.
  double extra_seconds(const std::string& key) const;
  /// Mean of a per-op extra over the first cycle (counts).
  double extra_count(const std::string& key) const;
  double median_calibrated_ms() const;
  double median_wall_ms() const;
  double mean_calibrated_s() const;
  const std::vector<const OpSample*>& ops() const { return ops_; }

 private:
  std::vector<const OpSample*> ops_;
  std::vector<const OpSample*> cycle_;
};

/// Layer accounting for the traced run: `layers(op)` gives an op's raw
/// exclusive layer times, and unattributed_s is the op's wall time minus
/// their sum, so layers plus unattributed_s equal the wall time exactly.
/// Adds each layer's calibrated total divided by `per` (the number of ops
/// when 0) to `result.metrics` under its name, fills unattributed_s and
/// layer_coverage, and records a check failure when any op's layers claim
/// more than its wall time by over kLayerAccountingTolerance of it.
void account_layers(
    const TracedOps& ops,
    const std::function<std::vector<std::pair<std::string, double>>(
        const OpSample&)>& layers,
    RunResult& result, double per = 0.0);

/// Median calibrated ms of a traced-run mode; the relative difference of
/// two modes in percent.
double overhead_pct(const TracedOps& with, const TracedOps& without);

/// Adds the metrics every traced run reports the same way (host.cal_ms,
/// wall.op_p50_ms, obs.overhead_pct, error_rate) and zero for every
/// per-layer metric the workload did not set.
void finish_traced(const TracedOps& traced, const TracedOps& untraced,
                   RunResult& result);

/// Records `what` as a failed control assertion when `ok` is false.
void control(bool ok, const std::string& what, RunResult& result);

/// Hex digest text of a 64-bit hash.
std::string hex64(std::uint64_t v);

}  // namespace perfbench
