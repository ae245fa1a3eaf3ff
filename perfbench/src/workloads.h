// The four workloads. Each builds its inputs from the seed, times its ops
// in a closed loop on one thread, checks every output outside the timed
// region, and returns the catalogue metrics of the run's kind.
#pragma once

#include <cstdint>

#include "harness.h"
#include "report.h"

namespace perfbench {

RunResult run_failover_sweep(const RunOptions& opts);
/// `recorded` selects faultsim_recorded (flight recorder on every op).
RunResult run_faultsim(const RunOptions& opts, bool recorded);
RunResult run_serve_session(const RunOptions& opts);

/// SplitMix64 step: the benchmark's own deterministic stream for deriving
/// variants from the workload seed (independent of the program's RNGs).
inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Every workload runs on the paper's case-study fleet (generator seed
/// 2006); the workload seed picks what runs on it (app subsets, search and
/// campaign seeds, the serve script). A fleet drawn per seed would make
/// the whole run heavier or lighter with the seed.
inline constexpr std::uint64_t kFleetSeed = 2006;

}  // namespace perfbench
