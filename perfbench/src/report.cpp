#include "report.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& metric_catalogue() {
  using K = MetricKind;
  static const std::vector<MetricSpec> catalogue{
      // End-to-end, all calibrated to the reference host (calibration.h).
      {"setup_s", "s", K::kEndToEnd},
      {"peak_rss_mb", "MB", K::kEndToEnd},
      {"op_p50_ms", "ms", K::kEndToEnd},
      {"op_p90_ms", "ms", K::kEndToEnd},
      {"work_per_s", "1/s", K::kEndToEnd},

      // Per layer, from the traced run. Counts and times are per op unless
      // the unit says otherwise; times are calibrated like the op's.
      {"workload.generate_s", "s", K::kPerLayer},
      {"qos.translate.calls", "count/op", K::kPerLayer},
      {"qos.translate.busy_s", "s/op", K::kPerLayer},
      {"sim.required_capacity.searches", "count/op", K::kPerLayer},
      {"sim.required_capacity.busy_s", "s/op", K::kPerLayer},
      {"sim.evaluate.calls", "count/op", K::kPerLayer},
      {"sim.evaluate.slots", "count/op", K::kPerLayer},
      {"sim.probes_per_search", "count", K::kPerLayer},
      {"sim.slots_per_search", "count", K::kPerLayer},
      {"sim.incremental.delta_verdicts", "count/op", K::kPerLayer},
      {"sim.incremental.delta_probes", "count/op", K::kPerLayer},
      {"sim.incremental.sum_rebuilds", "count/op", K::kPerLayer},
      {"sim.incremental.batch_fallbacks", "count/op", K::kPerLayer},
      {"sim.incremental.verdict_cache_hits", "count/op", K::kPerLayer},
      {"sim.incremental.delta_share", "ratio", K::kPerLayer},
      {"placement.genetic.searches", "count/op", K::kPerLayer},
      {"placement.genetic.evaluations", "count/op", K::kPerLayer},
      {"placement.genetic.generations", "count/op", K::kPerLayer},
      {"placement.genetic.busy_s", "s/op", K::kPerLayer},
      {"placement.self_s", "s/op", K::kPerLayer},
      {"failover.plan.busy_s", "s/op", K::kPerLayer},
      {"failover.cases", "count/op", K::kPerLayer},
      {"failover.unsupported_cases", "count/op", K::kPerLayer},
      {"faultsim.trials", "count/op", K::kPerLayer},
      {"faultsim.trial.busy_s", "s/op", K::kPerLayer},
      {"faultsim.trial.events", "count/op", K::kPerLayer},
      {"faultsim.self_s", "s/op", K::kPerLayer},
      {"wlm.schedule.runs", "count/op", K::kPerLayer},
      {"wlm.schedule.slots", "count/op", K::kPerLayer},
      {"wlm.schedule.busy_s", "s/op", K::kPerLayer},
      {"wlm.controller.fallback_activations", "count/op", K::kPerLayer},
      {"faultsim.telemetry.stale", "count/op", K::kPerLayer},
      {"faultsim.telemetry.missing", "count/op", K::kPerLayer},
      {"faultsim.telemetry.corrupt", "count/op", K::kPerLayer},
      {"obs.recorder.appended", "count/op", K::kPerLayer},
      {"obs.recorder.retained", "count/op", K::kPerLayer},
      {"obs.recorder.bytes", "bytes/op", K::kPerLayer},
      {"obs.recorder.finish_s", "s/op", K::kPerLayer},
      {"obs.recorder.overhead_pct", "%", K::kPerLayer},
      {"serve.protocol.parse_us", "us", K::kPerLayer},
      {"serve.arbiter.tick_us", "us", K::kPerLayer},
      {"serve.arbiter.admit_us", "us", K::kPerLayer},
      {"serve.arbiter.depart_us", "us", K::kPerLayer},
      {"serve.core.process_us", "us", K::kPerLayer},
      {"serve.core.self_s", "s/op", K::kPerLayer},
      {"serve.journal.frames", "count/op", K::kPerLayer},
      {"serve.journal.bytes", "bytes/op", K::kPerLayer},
      {"serve.checkpoints", "count/op", K::kPerLayer},
      {"serve.checkpoint.busy_s", "s/op", K::kPerLayer},
      {"serve.transport.overhead_us", "us", K::kPerLayer},
      {"serve.admission.accept_share", "ratio", K::kPerLayer},
      {"unattributed_s", "s/op", K::kPerLayer},
      {"layer_coverage", "ratio", K::kPerLayer},
      {"wall.op_p50_ms", "ms", K::kPerLayer},
      {"host.cal_ms", "ms", K::kPerLayer},
      {"obs.overhead_pct", "%", K::kPerLayer},
      {"error_rate", "ratio", K::kPerLayer},
  };
  return catalogue;
}

const MetricSpec* find_metric(std::string_view name) {
  for (const MetricSpec& m : metric_catalogue()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "failover_sweep", "faultsim_campaign", "faultsim_recorded",
      "serve_session"};
  return names;
}

void check_metric_set(const RunResult& result) {
  const MetricKind want =
      result.traced ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::set<std::string> expected;
  for (const MetricSpec& m : metric_catalogue()) {
    if (m.kind == want) expected.emplace(m.name);
  }
  std::set<std::string> got;
  for (const auto& [name, value] : result.metrics) got.insert(name);
  if (got != expected) {
    std::string detail;
    for (const std::string& n : expected) {
      if (got.count(n) == 0) detail += " missing:" + n;
    }
    for (const std::string& n : got) {
      if (expected.count(n) == 0) detail += " extra:" + n;
    }
    throw std::logic_error("metric set does not match the catalogue:" +
                           detail);
  }
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const RunResult& result) {
  std::string out = "{\"workload\":" + json_string(result.workload);
  out += ",\"seed\":" + std::to_string(result.seed);
  out += ",\"trace\":" + std::string(result.traced ? "1" : "0");
  out += ",\"correct\":" + std::string(result.correct() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"check_failures\":[";
  for (std::size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(result.check_failures[i]);
  }
  out += "],\"config\":{";
  bool first = true;
  for (const auto& [key, value] : result.config) {
    out += (first ? "" : ",") + json_string(key) + ":" + json_string(value);
    first = false;
  }
  out += "},\"diagnostics\":{";
  first = true;
  for (const auto& [key, value] : result.diagnostics) {
    out += (first ? "" : ",") + json_string(key) + ":" + json_number(value);
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const MetricSpec& spec : metric_catalogue()) {
    const auto it = result.metrics.find(std::string(spec.name));
    if (it == result.metrics.end()) continue;
    out += (first ? "" : ",") + json_string(spec.name) +
           ":{\"value\":" + json_number(it->second) +
           ",\"unit\":" + json_string(spec.unit) + "}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
