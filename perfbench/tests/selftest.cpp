// Self-tests of the benchmark's own arithmetic: statistics, the tail rule,
// error accounting, calibration and the metric catalogue. No ropus code is
// linked; run through `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.h"
#include "report.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

bool valid_name(std::string_view s) {
  if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool valid_unit(std::string_view s) {
  if (s.empty() || s.size() > 16) return false;
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        std::string_view("_/%.-").find(c) == std::string_view::npos) {
      return false;
    }
  }
  return true;
}

void test_median_and_mean() {
  using perfbench::median;
  EXPECT(median({}) == 0.0);
  EXPECT(median({3.0}) == 3.0);
  EXPECT(median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  EXPECT(perfbench::mean({1.0, 2.0, 6.0}) == 3.0);
  EXPECT(perfbench::mean({}) == 0.0);
}

void test_tail_rule() {
  using perfbench::tail_percentile;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  // Nearest rank: ceil(0.9 * 100) = 90, so the 90th value, with exactly 10
  // samples beyond it. 0.9 * 100 is 90.00000000000001 in binary floating
  // point; the rank must not round up to 91.
  const perfbench::Tail p90 = tail_percentile(values, 0.9);
  EXPECT(p90.value == 90.0);
  EXPECT(p90.beyond == 10);
  EXPECT(p90.ok);
  values.pop_back();  // 99 samples: ceil(89.1) = 90, 9 beyond
  const perfbench::Tail short_tail = tail_percentile(values, 0.9);
  EXPECT(short_tail.beyond == 9);
  EXPECT(!short_tail.ok);
  EXPECT(perfbench::samples_for_tail(0.9) == 100);
  EXPECT(perfbench::samples_for_tail(0.5) == 20);
  EXPECT(tail_percentile({7.0}, 0.9).value == 7.0);
  EXPECT(tail_percentile({}, 0.9).beyond == 0);
}

void test_error_rate() {
  EXPECT(perfbench::error_rate(0, 0) == 0.0);
  EXPECT(perfbench::error_rate(200, 0) == 0.0);
  EXPECT(perfbench::error_rate(200, 5) == 0.025);
}

void test_calibration() {
  using perfbench::calibrated_seconds;
  const double nominal = perfbench::kCalibrationNominalSeconds;
  // A host running at the reference speed reports raw times.
  EXPECT(near(calibrated_seconds(0.5, nominal), 0.5));
  // A host half as fast takes twice as long for both; the ratio cancels.
  EXPECT(near(calibrated_seconds(1.0, 2 * nominal), 0.5));
  EXPECT(near(calibrated_seconds(0.25, nominal / 2), 0.5));
  const double kernel = perfbench::run_calibration_kernel();
  EXPECT(kernel > 0.0 && kernel < 1.0);
  const std::uint64_t first = perfbench::calibration_checksum();
  perfbench::run_calibration_kernel();
  EXPECT(perfbench::calibration_checksum() != 0 && first != 0);
}

void test_catalogue() {
  std::set<std::string> names;
  std::set<std::string> end_to_end;
  std::size_t per_layer = 0;
  for (const perfbench::MetricSpec& m : perfbench::metric_catalogue()) {
    EXPECT(valid_name(m.name));
    EXPECT(valid_unit(m.unit));
    EXPECT(names.insert(std::string(m.name)).second);
    if (m.kind == perfbench::MetricKind::kEndToEnd) {
      end_to_end.insert(std::string(m.name));
    } else {
      ++per_layer;
    }
  }
  EXPECT((end_to_end == std::set<std::string>{"setup_s", "peak_rss_mb", "op_p50_ms",
                                               "op_p90_ms", "work_per_s"}));
  EXPECT(per_layer >= 1 && per_layer <= 128);
  EXPECT(perfbench::find_metric("setup_s")->unit == "s");
  EXPECT(perfbench::find_metric("op_p50_ms")->unit == "ms");
  EXPECT(perfbench::find_metric("work_per_s")->unit == "1/s");
  EXPECT(perfbench::find_metric("error_rate")->kind == perfbench::MetricKind::kPerLayer);
  EXPECT(perfbench::find_metric("no.such.metric") == nullptr);
  for (const std::string& w : perfbench::workload_names()) EXPECT(valid_name(w));
}

void test_metric_set_check() {
  perfbench::RunResult r;
  for (const perfbench::MetricSpec& m : perfbench::metric_catalogue()) {
    if (m.kind == perfbench::MetricKind::kEndToEnd) r.metrics[std::string(m.name)] = 1.0;
  }
  bool threw = false;
  try {
    perfbench::check_metric_set(r);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(!threw);
  r.metrics.erase("setup_s");
  threw = false;
  try {
    perfbench::check_metric_set(r);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
  r.traced = true;  // an untraced metric set is wrong for a traced run
  threw = false;
  try {
    perfbench::check_metric_set(r);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
}

void test_json() {
  EXPECT(perfbench::json_number(0.5) == "0.5");
  EXPECT(perfbench::json_number(NAN) == "null");
  EXPECT(perfbench::json_string("a\"b\n") == "\"a\\\"b\\n\"");
  perfbench::RunResult r;
  r.workload = "w";
  r.attempted = 3;
  r.metrics["setup_s"] = 0.25;
  const std::string json = perfbench::to_json(r);
  EXPECT(json.find("\"correct\":true") != std::string::npos);
  EXPECT(json.find("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}") != std::string::npos);
  r.fail_check("x");
  EXPECT(perfbench::to_json(r).find("\"correct\":false") != std::string::npos);
}

void test_fnv() {
  EXPECT(perfbench::fnv1a("", 0) == 14695981039346656037ull);
  EXPECT(perfbench::fnv1a("a", 1) == 0xaf63dc4c8601ec8cull);
}

}  // namespace

int main() {
  test_median_and_mean();
  test_tail_rule();
  test_error_rate();
  test_calibration();
  test_catalogue();
  test_metric_set_check();
  test_json();
  test_fnv();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
