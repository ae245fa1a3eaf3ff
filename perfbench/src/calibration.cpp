#include "calibration.h"

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {
namespace {

// Four independent one-week series pairs (~520 KB): four lanes of work per
// slot give the loop the instruction-level parallelism the program's replay
// loops have, so contention for the core's execution units slows both alike.
constexpr std::size_t kLanes = 4;
constexpr std::size_t kSlots = 8064;
constexpr int kPasses = 10;

struct KernelData {
  std::vector<double> first;
  std::vector<double> second;
  KernelData() : first(kLanes * kSlots), second(kLanes * kSlots) {
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < first.size(); ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      first[i] = static_cast<double>(state >> 40) / 16777216.0 * 6.0;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      second[i] = static_cast<double>(state >> 40) / 16777216.0 * 4.0;
    }
  }
};

std::uint64_t g_checksum = 0;

}  // namespace

double run_calibration_kernel() {
  static const KernelData data;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t mix = g_checksum | 1u;
  for (int pass = 0; pass < kPasses; ++pass) {
    // A replay in miniature per lane: serve the first series, give the
    // second what capacity remains, carry the deficit as a backlog that
    // drains later.
    const double capacity = 7.0 + 0.01 * static_cast<double>(pass);
    double backlog[kLanes] = {};
    double served[kLanes] = {};
    for (std::size_t i = 0; i < kSlots; ++i) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const std::size_t at = lane * kSlots + i;
        const double demand = data.first[at] + data.second[at];
        if (demand > capacity) {
          backlog[lane] += demand - capacity;
        } else if (backlog[lane] > 0.0) {
          const double drain = capacity - demand;
          backlog[lane] = drain >= backlog[lane] ? 0.0 : backlog[lane] - drain;
        }
        served[lane] += demand < capacity ? demand : capacity;
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      mix ^= static_cast<std::uint64_t>(served[lane] + backlog[lane] * 1024.0) +
             (mix << 6) + (mix >> 2);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  g_checksum = mix;
  return std::chrono::duration<double>(stop - start).count();
}

std::uint64_t calibration_checksum() { return g_checksum; }

}  // namespace perfbench
