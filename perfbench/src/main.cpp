// perfbench: the end-to-end benchmark binary. Normally launched through
// run.py, which builds it and turns its result line into the summary line:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>] [--smoke]
//
// Prints progress on stderr and the full result (fingerprint config,
// diagnostics, metrics with units) as the last line of stdout. Exit codes:
// 0 ran (the result says whether outputs were correct), 1 usage error,
// 3 the benchmark itself failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "calibration.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "workloads.h"

namespace {

int usage(const char* why, const std::string& detail = "") {
  std::fprintf(stderr,
               "perfbench: %s%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--state-dir <dir>] [--smoke]\n",
               why, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  opts.state_dir = ".bench_build/state";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("a flag needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opts.workload = next();
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string t = next();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace is 0 or 1");
        opts.traced = t == "1";
      } else if (arg == "--state-dir") {
        opts.state_dir = next();
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else {
        return usage("unknown argument ", arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    return usage("unknown workload ", opts.workload);
  }
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  // Every timed op runs on one thread: verdicts are byte-identical at any
  // thread count, and a sharded op would be timed by its slowest shard.
  ropus::parallel::set_thread_count(1);
  ropus::log::set_level(ropus::log::Level::kError);

  try {
    std::filesystem::remove_all(opts.state_dir);
    std::filesystem::create_directories(opts.state_dir);
    RunResult result;
    if (opts.workload == "failover_sweep") {
      result = run_failover_sweep(opts);
    } else if (opts.workload == "faultsim_campaign") {
      result = run_faultsim(opts, false);
    } else if (opts.workload == "faultsim_recorded") {
      result = run_faultsim(opts, true);
    } else {
      result = run_serve_session(opts);
    }
    result.workload = opts.workload;
    result.seed = opts.seed;
    result.traced = opts.traced;
    result.config["workload"] = opts.workload;
    result.config["threads"] = std::to_string(1);
    result.config["calibration_kernel"] = kCalibrationKernelId;
    result.config["calibration_nominal_s"] = json_number(kCalibrationNominalSeconds);
    check_metric_set(result);
    std::filesystem::remove_all(opts.state_dir);
    for (const std::string& f : result.check_failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }
    std::cout << to_json(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
