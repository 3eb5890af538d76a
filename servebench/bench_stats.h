// Sample statistics for the serving benchmark.
//
// The percentile rule: a rank is reported only when at least kMinBeyond
// samples lie beyond it. With fewer, the "p99" of a run is decided by a
// handful of outliers and flips between runs, so it is not reported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace servebench {

inline constexpr int64_t kMinBeyond = 10;

struct Quantile {
  /// The sample at the nearest rank; NaN when `ok` is false.
  double value = std::numeric_limits<double>::quiet_NaN();
  /// True when at least kMinBeyond samples lie beyond the rank.
  bool ok = false;
  /// Sample count, and samples strictly beyond the rank.
  int64_t n = 0;
  int64_t beyond = 0;
};

/// 1-based nearest rank of quantile `q` in `n` samples: ceil(q * n),
/// clamped to [1, n]. The epsilon keeps 0.99 * 1000 at rank 990.
inline int64_t NearestRank(double q, int64_t n) {
  const int64_t k =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(k, 1, std::max<int64_t>(n, 1));
}

/// Nearest-rank quantile of `samples` (reordered in place).
template <typename T>
Quantile QuantileOf(std::vector<T>* samples, double q) {
  Quantile out;
  out.n = static_cast<int64_t>(samples->size());
  if (out.n == 0) return out;
  const int64_t k = NearestRank(q, out.n);
  out.beyond = out.n - k;
  out.ok = out.beyond >= kMinBeyond;
  if (!out.ok) return out;
  auto kth = samples->begin() + (k - 1);
  std::nth_element(samples->begin(), kth, samples->end());
  out.value = static_cast<double>(*kth);
  return out;
}

}  // namespace servebench
