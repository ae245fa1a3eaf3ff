// The benchmark's statistics: medians, the tail-percentile rule and error
// accounting. Kept free of ropus code so the self-tests cover them alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty set.
double mean(const std::vector<double>& values);

/// A nearest-rank percentile with the number of samples strictly above its
/// rank. The tail rule: a percentile is reported only when at least
/// kMinBeyond samples lie beyond it.
struct Tail {
  double value = 0.0;
  std::size_t beyond = 0;
  bool ok = false;  // beyond >= kMinBeyond
};
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank `q`-quantile (0 < q < 1) of `values`: the sample at sorted
/// index ceil(q * n) - 1. `beyond` counts the samples after that index.
Tail tail_percentile(std::vector<double> values, double q);

/// Samples needed before the `q` tail rule can hold.
std::size_t samples_for_tail(double q);

/// failed / attempted; 0 when nothing was attempted.
double error_rate(std::uint64_t attempted, std::uint64_t failed);

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(const void* bytes, std::size_t size,
                    std::uint64_t hash = 14695981039346656037ull);

}  // namespace perfbench
