// Host-speed calibration for every time the benchmark reports.
//
// The host this benchmark runs on drifts in speed by tens of percent over
// minutes (shared vCPUs, no exposed PMU), so a raw wall time compares badly
// across runs. Each timing is therefore divided by the wall time of a fixed,
// benchmark-owned kernel run adjacent in time and multiplied by the kernel's
// nominal duration: the result reads as "seconds on the reference host".
//
// The kernel is a capacity replay in miniature over four independent lanes
// of one-week series (~520 KB). The lanes matter: the host has fast and slow
// spells in which the program's replay loops speed up more than a
// single-chain loop does, and a kernel with the program's instruction-level
// parallelism follows them. On one failover seed over eight runs, the gap
// between fast-spell and slow-spell medians fell from ~8% calibrated by a
// single-chain kernel to ~2%. A cache-busting fleet-sized kernel (3.4 MB)
// tracked even the memory-heavy faultsim replay worse than either.
//
// The kernel calls nothing in the ropus sources and is compiled with pinned
// flags (CMakeLists.txt), so a change to the program or to the repository's
// compile options moves only the numerator of the ratio.
#pragma once

#include <cstdint>

namespace perfbench {

/// Identity of the kernel; part of every result's fingerprint. Change it
/// whenever the kernel's code, size or flags change.
inline constexpr const char* kCalibrationKernelId = "replay-lanes-v2";

/// The kernel's duration on the reference host (4-vCPU Xeon VM, GCC 12.2).
/// Calibrated times are scaled to it.
inline constexpr double kCalibrationNominalSeconds = 0.002;

/// Runs the kernel once and returns its wall time in seconds.
double run_calibration_kernel();

/// Checksum of all kernel runs so far (keeps the work observable).
std::uint64_t calibration_checksum();

/// `wall_seconds` expressed in reference-host seconds, given the kernel's
/// wall time `kernel_seconds` measured next to it.
inline double calibrated_seconds(double wall_seconds, double kernel_seconds) {
  return wall_seconds / kernel_seconds * kCalibrationNominalSeconds;
}

}  // namespace perfbench
