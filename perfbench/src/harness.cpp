#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "calibration.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats.h"

namespace perfbench {
namespace {

// Whatever --seconds says, a run must end well inside the 180 s a run may
// take; ops slower than planned end the loop here instead.
constexpr double kMaxLoopSeconds = 100.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ObsValues read_obs() {
  const ropus::obs::Snapshot snap = ropus::obs::Registry::global().snapshot();
  ObsValues values;
  for (const auto& [name, value] : snap.counters) {
    values[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : snap.gauges) values[name] = value;
  for (const auto& [name, h] : snap.histograms) {
    values[name + ".sum"] = h.sum;
    values[name + ".count"] = static_cast<double>(h.count);
  }
  return values;
}

ObsValues obs_delta(const ObsValues& before, const ObsValues& after) {
  ObsValues delta = after;
  for (const auto& [key, value] : before) delta[key] -= value;
  return delta;
}

double value_of(const ObsValues& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

void set_tracing(bool on) {
  ropus::obs::set_timing_enabled(on);
  ropus::obs::Tracer::global().set_enabled(on);
  ropus::obs::Tracer::global().clear();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double OpSample::calibrated_s() const {
  return calibrated_seconds(wall_s, kernel_s);
}

double OpSample::scale() const { return kCalibrationNominalSeconds / kernel_s; }

double measure_setup(
    std::size_t reps,
    const std::function<std::map<std::string, double>()>& setup,
    std::map<std::string, double>* parts,
    const std::function<void()>& teardown) {
  std::vector<double> totals;
  std::map<std::string, std::vector<double>> part_values;
  for (std::size_t r = 0; r < reps; ++r) {
    if (r > 0 && teardown) teardown();
    const double before = run_calibration_kernel();
    const double start = now_seconds();
    const std::map<std::string, double> raw = setup();
    const double wall = now_seconds() - start;
    const double kernel = 0.5 * (before + run_calibration_kernel());
    totals.push_back(calibrated_seconds(wall, kernel));
    for (const auto& [name, seconds] : raw) {
      part_values[name].push_back(calibrated_seconds(seconds, kernel));
    }
  }
  if (parts != nullptr) {
    for (const auto& [name, values] : part_values) {
      (*parts)[name] = median(values);
    }
  }
  return median(totals);
}

std::vector<OpSample> run_loop(const RunOptions& opts, const LoopSpec& spec,
                               RunResult& result) {
  const std::size_t modes = spec.modes.size();
  const std::size_t cycle = modes * spec.variants;
  std::size_t min_ops = opts.traced ? cycle : samples_for_tail(0.9);
  if (opts.smoke) min_ops = 2 * modes;
  std::vector<OpSample> samples;
  std::size_t reported_failures = 0;
  const double start = now_seconds();
  for (std::size_t n = 0;; ++n) {
    const double elapsed = now_seconds() - start;
    const bool whole_cycle = opts.smoke || n % cycle == 0;
    if (n >= min_ops && elapsed >= opts.seconds && whole_cycle) break;
    if (elapsed >= kMaxLoopSeconds) break;
    OpSample s;
    s.mode = n % modes;
    s.variant = (n / modes) % spec.variants;
    spec.enter_mode(s.mode);
    const ObsValues before = opts.traced ? read_obs() : ObsValues{};
    const double kernel_before = run_calibration_kernel();
    std::string failure;
    try {
      ropus::obs::ScopedSpan span("perfbench.op");
      spec.op(s);
    } catch (const std::exception& e) {
      failure = std::string("op threw: ") + e.what();
    }
    s.kernel_s = 0.5 * (kernel_before + run_calibration_kernel());
    if (opts.traced) {
      s.obs = obs_delta(before, read_obs());
      ropus::obs::Tracer::global().clear();
    }
    if (failure.empty() && spec.verify) failure = spec.verify(s);
    if (!failure.empty()) {
      s.failed = true;
      // One line per failure kind is enough to diagnose; the count goes
      // into `failed`.
      if (reported_failures++ < 5) result.fail_check(failure);
    }
    samples.push_back(std::move(s));
  }
  result.attempted += samples.size();
  for (const OpSample& s : samples) result.failed += s.failed ? 1 : 0;
  return samples;
}

void summarize_end_to_end(const std::vector<OpSample>& samples,
                          double setup_s, double rss_mb, RunResult& result,
                          std::optional<double> work_per_s) {
  std::vector<double> calibrated_ms;
  std::vector<double> wall_ms;
  std::vector<double> kernel_ms;
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>>
      by_variant;  // variant -> (calibrated seconds, work)
  for (const OpSample& s : samples) {
    calibrated_ms.push_back(s.calibrated_s() * 1e3);
    wall_ms.push_back(s.wall_s * 1e3);
    kernel_ms.push_back(s.kernel_s * 1e3);
    by_variant[s.variant].first.push_back(s.calibrated_s());
    by_variant[s.variant].second.push_back(s.work);
  }
  // Throughput over whole variant cycles: per-variant mean time and work,
  // so a run cut mid-cycle by the loop's time limit does not over-weight
  // the early variants.
  double cycle_seconds = 0.0;
  double cycle_work = 0.0;
  for (const auto& [variant, values] : by_variant) {
    cycle_seconds += mean(values.first);
    cycle_work += mean(values.second);
  }
  const Tail p90 = tail_percentile(calibrated_ms, 0.9);
  result.metrics["setup_s"] = setup_s;
  result.metrics["peak_rss_mb"] = rss_mb;
  result.metrics["op_p50_ms"] = median(calibrated_ms);
  result.metrics["op_p90_ms"] = p90.value;
  result.metrics["work_per_s"] =
      work_per_s ? *work_per_s
                 : (cycle_seconds > 0.0 ? cycle_work / cycle_seconds : 0.0);
  result.diagnostics["ops"] = static_cast<double>(samples.size());
  result.diagnostics["op_p90_samples_beyond"] = static_cast<double>(p90.beyond);
  result.diagnostics["wall.op_p50_ms"] = median(wall_ms);
  result.diagnostics["host.cal_ms"] = median(kernel_ms);
  result.diagnostics["error_rate"] =
      error_rate(result.attempted, result.failed);
  if (!p90.ok) {
    result.diagnostics["op_p90_tail_rule_met"] = 0.0;
    std::fprintf(stderr,
                 "perfbench: warning: only %zu samples beyond op_p90_ms "
                 "(want %zu)\n",
                 p90.beyond, kMinBeyond);
  }
}

TracedOps::TracedOps(const std::vector<OpSample>& samples, std::size_t mode,
                     std::size_t variants) {
  std::vector<bool> seen(variants, false);
  for (const OpSample& s : samples) {
    if (s.mode != mode) continue;
    ops_.push_back(&s);
    if (s.variant < variants && !seen[s.variant]) {
      seen[s.variant] = true;
      cycle_.push_back(&s);
    }
  }
}

double TracedOps::count(const std::string& key) const {
  double sum = 0.0;
  for (const OpSample* s : cycle_) sum += value_of(s->obs, key);
  return cycle_.empty() ? 0.0 : sum / static_cast<double>(cycle_.size());
}

double TracedOps::seconds(const std::string& key) const {
  double sum = 0.0;
  for (const OpSample* s : ops_) sum += value_of(s->obs, key) * s->scale();
  return ops_.empty() ? 0.0 : sum / static_cast<double>(ops_.size());
}

double TracedOps::extra_seconds(const std::string& key) const {
  double sum = 0.0;
  for (const OpSample* s : ops_) {
    const auto it = s->extra.find(key);
    if (it != s->extra.end()) sum += it->second * s->scale();
  }
  return ops_.empty() ? 0.0 : sum / static_cast<double>(ops_.size());
}

double TracedOps::extra_count(const std::string& key) const {
  double sum = 0.0;
  for (const OpSample* s : cycle_) {
    const auto it = s->extra.find(key);
    if (it != s->extra.end()) sum += it->second;
  }
  return cycle_.empty() ? 0.0 : sum / static_cast<double>(cycle_.size());
}

double TracedOps::median_calibrated_ms() const {
  std::vector<double> v;
  for (const OpSample* s : ops_) v.push_back(s->calibrated_s() * 1e3);
  return median(v);
}

double TracedOps::median_wall_ms() const {
  std::vector<double> v;
  for (const OpSample* s : ops_) v.push_back(s->wall_s * 1e3);
  return median(v);
}

double TracedOps::mean_calibrated_s() const {
  double sum = 0.0;
  for (const OpSample* s : ops_) sum += s->calibrated_s();
  return ops_.empty() ? 0.0 : sum / static_cast<double>(ops_.size());
}

void account_layers(
    const TracedOps& ops,
    const std::function<std::vector<std::pair<std::string, double>>(
        const OpSample&)>& layers,
    RunResult& result, double per) {
  std::map<std::string, double> layer_sums;
  double unattributed_sum = 0.0;
  double attributed_raw = 0.0;
  double wall_raw = 0.0;
  std::string violation;
  for (const OpSample* s : ops.ops()) {
    double attributed = 0.0;
    for (const auto& [name, seconds] : layers(*s)) {
      attributed += seconds;
      layer_sums[name] += seconds * s->scale();
    }
    const double unattributed = s->wall_s - attributed;
    if (unattributed < -kLayerAccountingTolerance * s->wall_s &&
        violation.empty()) {
      violation = "layers claim more than the op's wall time";
    }
    unattributed_sum += unattributed * s->scale();
    attributed_raw += attributed;
    wall_raw += s->wall_s;
  }
  const double n =
      per > 0.0 ? per : static_cast<double>(std::max<std::size_t>(ops.ops().size(), 1));
  for (const auto& [name, sum] : layer_sums) result.metrics[name] = sum / n;
  result.metrics["unattributed_s"] = unattributed_sum / n;
  result.metrics["layer_coverage"] =
      wall_raw > 0.0 ? attributed_raw / wall_raw : 0.0;
  if (!violation.empty()) result.fail_check("layer accounting: " + violation);
}

double overhead_pct(const TracedOps& with, const TracedOps& without) {
  const double base = without.median_calibrated_ms();
  return base > 0.0 ? (with.median_calibrated_ms() / base - 1.0) * 100.0 : 0.0;
}

void finish_traced(const TracedOps& traced, const TracedOps& untraced,
                   RunResult& result) {
  std::vector<double> kernel_ms;
  for (const OpSample* s : traced.ops()) kernel_ms.push_back(s->kernel_s * 1e3);
  result.metrics["host.cal_ms"] = median(kernel_ms);
  result.metrics["wall.op_p50_ms"] = traced.median_wall_ms();
  result.metrics["obs.overhead_pct"] = overhead_pct(traced, untraced);
  result.metrics["error_rate"] = error_rate(result.attempted, result.failed);
  result.diagnostics["op_p50_ms.traced"] = traced.median_calibrated_ms();
  result.diagnostics["op_p50_ms.untraced"] = untraced.median_calibrated_ms();
  result.diagnostics["ops.traced"] = static_cast<double>(traced.ops().size());
  for (const MetricSpec& m : metric_catalogue()) {
    if (m.kind == MetricKind::kPerLayer) {
      result.metrics.emplace(std::string(m.name), 0.0);
    }
  }
}

void control(bool ok, const std::string& what, RunResult& result) {
  if (!ok) result.fail_check("control assertion failed: " + what);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
