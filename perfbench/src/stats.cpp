#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail tail_percentile(std::vector<double> values, double q) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  tail.ok = tail.beyond >= kMinBeyond;
  return tail;
}

std::size_t samples_for_tail(double q) {
  // Smallest n with n - ceil(q n) >= kMinBeyond.
  std::size_t n = kMinBeyond;
  while (n - static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n) - 1e-9)) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

double error_rate(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0
             ? 0.0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

std::uint64_t fnv1a(const void* bytes, std::size_t size, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
