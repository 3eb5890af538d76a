#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/status.h"

namespace scrpqo {

EquiDepthHistogram EquiDepthHistogram::Build(std::vector<double> values,
                                             int num_buckets) {
  EquiDepthHistogram h;
  if (values.empty()) return h;
  SCRPQO_CHECK(num_buckets > 0, "num_buckets must be positive");
  std::sort(values.begin(), values.end());
  h.row_count_ = static_cast<int64_t>(values.size());
  h.min_ = values.front();
  h.max_ = values.back();

  int64_t n = h.row_count_;
  int buckets = static_cast<int>(
      std::min<int64_t>(num_buckets, n));
  int64_t target_depth = (n + buckets - 1) / buckets;

  size_t i = 0;
  while (i < values.size()) {
    size_t end = std::min(values.size(), i + static_cast<size_t>(target_depth));
    // Extend the bucket so equal values never straddle a boundary; this keeps
    // the CDF well-defined at bucket edges.
    while (end < values.size() && values[end] == values[end - 1]) ++end;
    double ub = values[end - 1];
    int64_t count = static_cast<int64_t>(end - i);
    int64_t distinct = 1;
    for (size_t j = i + 1; j < end; ++j) {
      if (values[j] != values[j - 1]) ++distinct;
    }
    h.upper_bounds_.push_back(ub);
    h.counts_.push_back(count);
    h.distincts_.push_back(distinct);
    h.distinct_total_ += distinct;
    i = end;
  }
  h.rows_below_.reserve(h.counts_.size() + 1);
  int64_t below = 0;
  for (int64_t count : h.counts_) {
    h.rows_below_.push_back(static_cast<double>(below));
    below += count;
  }
  h.rows_below_.push_back(static_cast<double>(below));
  return h;
}

namespace {

/// Index of the first element of `v` for which `step_past` is false, given
/// that it is true on a prefix (as std::partition_point). Each halving is a
/// compare-and-select rather than a branch, because serving probes buckets
/// in no predictable order.
template <typename Pred>
size_t FirstNotPast(std::span<const double> v, Pred step_past) noexcept {
  if (v.empty()) return 0;
  const double* base = v.data();
  size_t n = v.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = step_past(base[half]) ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - v.data()) + (step_past(*base) ? 1 : 0);
}

}  // namespace

// The bucket search uses exactly the condition a linear walk from bucket 0
// tests to step past a bucket (`c >= upper`), so it stops at the bucket such
// a walk stops at for every input, NaN included (a NaN steps past nothing);
// over finite inputs it is std::upper_bound. The equality estimate's bucket
// (the first whose bound is >= c, std::lower_bound) is derived from it:
// bounds ascend strictly, so only the bound just below can equal c.
size_t EquiDepthHistogram::CdfBucket(double c) const noexcept {
  return FirstNotPast(upper_bounds_, [c](double upper) { return c >= upper; });
}

double EquiDepthHistogram::CdfLe(double c, size_t b) const noexcept {
  if (empty()) return 0.0;
  if (c < min_) return 0.0;
  if (c >= max_) return 1.0;
  // b < num_buckets(): the last bound is max_ > c.
  const double upper = upper_bounds_[b];
  const double lower = b == 0 ? min_ : upper_bounds_[b - 1];
  const double bucket_rows = static_cast<double>(counts_[b]);
  // c falls inside bucket b: interpolate uniformly.
  double width = upper - lower;
  double frac = width <= 0.0 ? 1.0 : (c - lower) / width;
  frac = std::clamp(frac, 0.0, 1.0);
  double cum = rows_below_[b];
  cum += bucket_rows * frac;
  return cum / static_cast<double>(row_count_);
}

double EquiDepthHistogram::EstimateEq(double c, size_t b) const noexcept {
  if (empty() || c < min_ || c > max_) return 0.0;
  if (b > 0 && !(upper_bounds_[b - 1] < c)) --b;
  // A NaN c is <= no bound: a linear walk finds no bucket.
  if (!(c <= upper_bounds_[b])) return 0.0;
  double bucket_frac =
      static_cast<double>(counts_[b]) / static_cast<double>(row_count_);
  double d = static_cast<double>(std::max<int64_t>(distincts_[b], 1));
  return bucket_frac / d;
}

double EquiDepthHistogram::EstimateSelectivity(CompareOp op,
                                               double c) const noexcept {
  if (empty()) return 0.0;
  const size_t b = CdfBucket(c);
  switch (op) {
    case CompareOp::kLe:
      return CdfLe(c, b);
    case CompareOp::kLt:
      return std::max(0.0, CdfLe(c, b) - EstimateEq(c, b));
    case CompareOp::kGt:
      return std::max(0.0, 1.0 - CdfLe(c, b));
    case CompareOp::kGe:
      return std::min(1.0, 1.0 - CdfLe(c, b) + EstimateEq(c, b));
    case CompareOp::kEq:
      return EstimateEq(c, b);
  }
  return 0.0;
}

double EquiDepthHistogram::QuantileForSelectivity(CompareOp op,
                                                  double target) const {
  SCRPQO_CHECK(op != CompareOp::kEq,
               "QuantileForSelectivity requires a range operator");
  if (empty()) return 0.0;
  target = std::clamp(target, 0.0, 1.0);
  // For > / >= predicates a target selectivity t corresponds to the
  // (1 - t) quantile of the CDF.
  double cdf_target =
      (op == CompareOp::kGt || op == CompareOp::kGe) ? 1.0 - target : target;

  if (cdf_target <= 0.0) return min_ - 1.0;
  if (cdf_target >= 1.0) return max_;

  // First bucket whose cumulative fraction reaches the target. The
  // fractions rows_below_[b + 1] / total ascend with b, so a binary search
  // finds the bucket a linear walk would stop at.
  const double total = static_cast<double>(row_count_);
  const size_t b = FirstNotPast(
      std::span<const double>(rows_below_).subspan(1),
      [&](double next_cum) { return !(next_cum / total >= cdf_target); });
  if (b == upper_bounds_.size()) return max_;
  const double upper = upper_bounds_[b];
  const double lower = b == 0 ? min_ : upper_bounds_[b - 1];
  const double bucket_rows = static_cast<double>(counts_[b]);
  double need = cdf_target * total - rows_below_[b];
  double frac = bucket_rows <= 0.0 ? 0.0 : need / bucket_rows;
  return lower + (upper - lower) * frac;
}

std::string EquiDepthHistogram::ToString() const {
  std::ostringstream os;
  os << "EquiDepthHistogram(rows=" << row_count_
     << ", distinct=" << distinct_total_ << ", buckets="
     << upper_bounds_.size() << ", range=[" << min_ << ", " << max_ << "])";
  return os.str();
}

}  // namespace scrpqo
