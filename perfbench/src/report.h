// The benchmark's metric catalogue and its result document.
//
// Every metric the benchmark can print is declared once here, with its unit.
// An untraced run prints every end-to-end metric; a traced run prints every
// per-layer metric (0 where a layer does no work on that workload). The
// self-tests and BENCHMARK.json are checked against this table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  MetricKind kind;
};

/// All metrics, end-to-end first, in print order.
const std::vector<MetricSpec>& metric_catalogue();

/// The catalogue entry for `name`, or nullptr.
const MetricSpec* find_metric(std::string_view name);

/// Names of the four workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// One run's outcome. `metrics` must hold exactly the catalogue entries of
/// the run's kind; `config` and `diagnostics` feed the fingerprint and the
/// human-readable part of the result.
struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = outputs correct
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> config;
  std::map<std::string, double> diagnostics;

  bool correct() const { return check_failures.empty(); }
  void fail_check(std::string what) { check_failures.push_back(std::move(what)); }
};

/// Throws std::logic_error when `result.metrics` is not exactly the
/// catalogue entries of its kind (a bench bug, never an input problem).
void check_metric_set(const RunResult& result);

/// The full result as one JSON line: fingerprint config, diagnostics,
/// check failures, and the metrics with units. run.py turns it into the
/// driver's four-key summary line.
std::string to_json(const RunResult& result);

/// JSON string literal for `s` (quotes included).
std::string json_string(std::string_view s);

/// A number as JSON with all its digits (%.17g); non-finite values become
/// null, which the result checker rejects.
std::string json_number(double v);

}  // namespace perfbench
