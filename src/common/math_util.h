// Small numeric helpers shared across modules: percentiles, means, and the
// G/L selectivity-ratio factors at the heart of the SCR selectivity check.
#pragma once

#include <cstddef>
#include <vector>

#include "common/effects.h"
#include "common/simd.h"

namespace scrpqo {

/// Selectivities are clamped to this floor before ratio computation so
/// G/L stay finite (shared by ComputeGl / ComputeGlFast /
/// SelectivityRatios).
inline constexpr double kSelectivityFloor = 1e-9;

/// \brief Percentile of a sample using linear interpolation between order
/// statistics (the "R-7" definition used by numpy). `p` in [0, 100].
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

double Max(const std::vector<double>& values);

/// \brief Net cost increment factor G = prod over dimensions with
/// ratio > 1 of the ratio (paper Section 5.3). `ratios[i]` is
/// s_i(qc) / s_i(qe).
double ComputeG(const std::vector<double>& ratios);

/// \brief Net cost decrement factor L = prod over dimensions with
/// ratio < 1 of (1 / ratio) (paper Section 5.3).
double ComputeL(const std::vector<double>& ratios);

/// Component-wise ratios between two selectivity vectors; selectivities are
/// clamped to a small positive floor so ratios stay finite.
std::vector<double> SelectivityRatios(const std::vector<double>& from,
                                      const std::vector<double>& to);

struct GlFactors {
  double g = 1.0;
  double l = 1.0;
};

/// G and L of SelectivityRatios(from, to) computed in one pass without
/// materializing the ratio vector — the allocation-free form used by the
/// selectivity check's inner loop, which runs once per stored instance per
/// getPlan. Identical results to ComputeG/ComputeL over SelectivityRatios.
GlFactors ComputeGl(const std::vector<double>& from,
                    const std::vector<double>& to);

/// ComputeGl with the dimension loop unrolled over four independent
/// accumulator lanes (auto-vectorizable, and the lanes software-pipeline
/// regardless) plus a scalar tail. Same clamping and branch predicates as
/// ComputeGl; the horizontal product at the end reorders multiplications,
/// so results agree only to ~1 ulp — use ComputeGl where bit-exact
/// G/L identities are asserted, ComputeGlFast on the getPlan hot loop
/// (every consumer there compares against thresholds with slack).
///
/// This form reads `n` selectivities from each of two raw rows, so the
/// selectivity check can scan a flat stride-d array of stored vectors; the
/// vector form below runs the identical arithmetic.
SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
SCRPQO_NOTHROW SCRPQO_LOCK_BOUNDED()
inline GlFactors ComputeGlFast(const double* f, const double* t,
                               size_t n) noexcept {
  const Vec4dScalar one(1.0);
  const Vec4dScalar floor_v(kSelectivityFloor);
  Vec4dScalar g4(1.0);
  Vec4dScalar l4(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Vec4dScalar fv = VecMax(Vec4dScalar::Load(f + i), floor_v);
    Vec4dScalar tv = VecMax(Vec4dScalar::Load(t + i), floor_v);
    Vec4dScalar r = tv / fv;
    // g *= (r > 1 ? r : 1);  l *= (r < 1 ? 1/r : 1)
    g4 = g4 * VecSelectGt(r, one, r, one);
    l4 = l4 * VecSelectGt(one, r, one / r, one);
  }
  GlFactors out;
  out.g = g4.v[0] * g4.v[1] * g4.v[2] * g4.v[3];
  out.l = l4.v[0] * l4.v[1] * l4.v[2] * l4.v[3];
  for (; i < n; ++i) {
    double fc = VecMax(f[i], kSelectivityFloor);
    double tc = VecMax(t[i], kSelectivityFloor);
    double r = tc / fc;
    if (r > 1.0) out.g *= r;
    if (r < 1.0) out.l /= r;
  }
  return out;
}

/// ComputeGlFast over `from.size()` dimensions of two selectivity vectors.
SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
SCRPQO_NOTHROW SCRPQO_LOCK_BOUNDED()
inline GlFactors ComputeGlFast(const std::vector<double>& from,
                               const std::vector<double>& to) noexcept {
  return ComputeGlFast(from.data(), to.data(), from.size());
}

/// Euclidean distance between two selectivity vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace scrpqo
