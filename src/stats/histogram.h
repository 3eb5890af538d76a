// Equi-depth histograms: the selectivity-estimation substrate the paper's
// sVector API (Appendix B) relies on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "expr/value.h"

namespace scrpqo {

/// \brief Equi-depth (equi-height) histogram over the numeric view of a
/// column, with per-bucket distinct counts.
///
/// Estimation assumes uniform spread within a bucket — the standard model in
/// commercial optimizers. Bucket lookups are binary searches over the
/// bounds, and the rows below a bucket come from exact prefix counts, so an
/// estimate costs O(log B) and no allocation (DESIGN.md §4k).
/// `QuantileForSelectivity` inverts the estimate: it returns a predicate
/// constant whose estimated selectivity is (close to) a requested target,
/// which is how the workload generator hits chosen points in the
/// selectivity space (paper Section 7.1).
class EquiDepthHistogram {
 public:
  EquiDepthHistogram() = default;

  /// Builds a histogram with at most `num_buckets` buckets from raw values
  /// (taken by value; sorted internally).
  static EquiDepthHistogram Build(std::vector<double> values,
                                  int num_buckets);

  /// Estimated fraction of rows satisfying `col op constant`, in [0, 1].
  double EstimateSelectivity(CompareOp op, double constant) const noexcept;

  /// Returns a constant c such that EstimateSelectivity(op, c) ~= target.
  /// Only meaningful for inequality operators. `target` is clamped to
  /// [0, 1].
  double QuantileForSelectivity(CompareOp op, double target) const;

  int64_t row_count() const { return row_count_; }
  int64_t distinct_count() const { return distinct_total_; }
  double min_value() const { return min_; }
  double max_value() const { return max_; }
  size_t num_buckets() const { return upper_bounds_.size(); }
  bool empty() const { return row_count_ == 0; }

  /// Bucket layout, for oracles and diagnostics: bucket i covers
  /// (upper_bounds()[i-1], upper_bounds()[i]] (from min_value() for i = 0)
  /// and holds counts()[i] rows with distincts()[i] distinct values.
  std::span<const double> upper_bounds() const { return upper_bounds_; }
  std::span<const int64_t> counts() const { return counts_; }
  std::span<const int64_t> distincts() const { return distincts_; }

  std::string ToString() const;

 private:
  /// The bucket a linear walk from bucket 0 stops at when computing the CDF
  /// at c: the first whose upper bound exceeds c (bucket 0 for a NaN c).
  size_t CdfBucket(double c) const noexcept;
  /// Fraction of rows with value <= c (the CDF); all operators derive from
  /// this plus the equality estimate. `b` is CdfBucket(c).
  double CdfLe(double c, size_t b) const noexcept;
  /// Estimated fraction of rows with value == c. `b` is CdfBucket(c).
  double EstimateEq(double c, size_t b) const noexcept;

  // Bucket i covers (lower_i, upper_bounds_[i]] where lower_i is the
  // previous bucket's upper bound (min_ for bucket 0, inclusive). Bounds
  // ascend strictly: Build never lets equal values straddle a boundary.
  std::vector<double> upper_bounds_;
  std::vector<int64_t> counts_;
  // rows_below_[i] = counts_[0] + ... + counts_[i-1] as a double, with one
  // extra trailing entry (the row count). Every partial sum is an integer
  // below 2^53, so it is exact and equals the running sum a linear walk
  // would accumulate.
  std::vector<double> rows_below_;
  std::vector<int64_t> distincts_;
  int64_t row_count_ = 0;
  int64_t distinct_total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Summary statistics for one column, owned by the catalog.
struct ColumnStats {
  int64_t row_count = 0;
  int64_t distinct_count = 0;
  double min_value = 0.0;
  double max_value = 0.0;
  EquiDepthHistogram histogram;

  /// Selectivity of `op constant` against this column.
  double Selectivity(CompareOp op, const Value& constant) const noexcept {
    if (row_count == 0) return 0.0;
    return histogram.EstimateSelectivity(op, constant.AsDouble());
  }
};

}  // namespace scrpqo
