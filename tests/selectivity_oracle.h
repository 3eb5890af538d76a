// Reference selectivity estimation: the original per-call path, kept only
// as an oracle for tests and benchmarks.
//
// It resolves each sVector dimension the way estimation used to: build a
// "table.column" string, probe a string-keyed map, and walk the histogram's
// buckets linearly, accumulating the rows below the target bucket one
// bucket at a time. The production path (SelectivityProgram over binary
// searches and prefix counts) must agree with it bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "catalog/catalog.h"
#include "query/query_instance.h"
#include "stats/histogram.h"

namespace scrpqo::oracle {

/// Fraction of rows <= c, by a linear walk over the buckets.
inline double CdfLe(const EquiDepthHistogram& h, double c) {
  if (h.empty()) return 0.0;
  if (c < h.min_value()) return 0.0;
  if (c >= h.max_value()) return 1.0;
  double cum = 0.0;
  double lower = h.min_value();
  for (size_t b = 0; b < h.upper_bounds().size(); ++b) {
    double upper = h.upper_bounds()[b];
    double bucket_rows = static_cast<double>(h.counts()[b]);
    if (c >= upper) {
      cum += bucket_rows;
      lower = upper;
      continue;
    }
    // c falls inside bucket b: interpolate uniformly.
    double width = upper - lower;
    double frac = width <= 0.0 ? 1.0 : (c - lower) / width;
    frac = std::clamp(frac, 0.0, 1.0);
    cum += bucket_rows * frac;
    break;
  }
  return cum / static_cast<double>(h.row_count());
}

/// Fraction of rows == c, by a linear walk over the buckets.
inline double EstimateEq(const EquiDepthHistogram& h, double c) {
  if (h.empty() || c < h.min_value() || c > h.max_value()) return 0.0;
  for (size_t b = 0; b < h.upper_bounds().size(); ++b) {
    if (c <= h.upper_bounds()[b]) {
      double bucket_frac = static_cast<double>(h.counts()[b]) /
                           static_cast<double>(h.row_count());
      double d = static_cast<double>(std::max<int64_t>(h.distincts()[b], 1));
      return bucket_frac / d;
    }
  }
  return 0.0;
}

inline double EstimateSelectivity(const EquiDepthHistogram& h, CompareOp op,
                                  double c) {
  if (h.empty()) return 0.0;
  switch (op) {
    case CompareOp::kLe:
      return CdfLe(h, c);
    case CompareOp::kLt:
      return std::max(0.0, CdfLe(h, c) - EstimateEq(h, c));
    case CompareOp::kGt:
      return std::max(0.0, 1.0 - CdfLe(h, c));
    case CompareOp::kGe:
      return std::min(1.0, 1.0 - CdfLe(h, c) + EstimateEq(h, c));
    case CompareOp::kEq:
      return EstimateEq(h, c);
  }
  return 0.0;
}

/// A constant whose estimated selectivity is ~target, by a linear walk.
inline double QuantileForSelectivity(const EquiDepthHistogram& h, CompareOp op,
                                     double target) {
  if (h.empty()) return 0.0;
  target = std::clamp(target, 0.0, 1.0);
  double cdf_target =
      (op == CompareOp::kGt || op == CompareOp::kGe) ? 1.0 - target : target;
  if (cdf_target <= 0.0) return h.min_value() - 1.0;
  if (cdf_target >= 1.0) return h.max_value();
  double cum = 0.0;
  double lower = h.min_value();
  double total = static_cast<double>(h.row_count());
  for (size_t b = 0; b < h.upper_bounds().size(); ++b) {
    double upper = h.upper_bounds()[b];
    double bucket_rows = static_cast<double>(h.counts()[b]);
    double next_cum = cum + bucket_rows;
    if (next_cum / total >= cdf_target) {
      double need = cdf_target * total - cum;
      double frac = bucket_rows <= 0.0 ? 0.0 : need / bucket_rows;
      return lower + (upper - lower) * frac;
    }
    cum = next_cum;
    lower = upper;
  }
  return h.max_value();
}

/// The catalog's column statistics re-indexed by "table.column" strings.
class StringKeyedStats {
 public:
  explicit StringKeyedStats(const Catalog& catalog) {
    for (const std::string& table : catalog.TableNames()) {
      for (const ColumnDef& col : catalog.GetTable(table).columns) {
        const ColumnStats* s = catalog.FindColumnStats(table, col.name);
        if (s != nullptr) stats_[table + "." + col.name] = s;
      }
    }
  }

  const ColumnStats& Get(const std::string& table,
                         const std::string& column) const {
    auto it = stats_.find(table + "." + column);
    SCRPQO_CHECK(it != stats_.end(), "oracle: missing stats");
    return *it->second;
  }

 private:
  std::map<std::string, const ColumnStats*> stats_;
};

/// The sVector of `instance`, resolved per call through `stats`.
inline SVector ComputeSelectivityVector(const StringKeyedStats& stats,
                                        const QueryInstance& instance) {
  const QueryTemplate& tmpl = instance.query_template();
  SVector sv(static_cast<size_t>(tmpl.dimensions()), 0.0);
  for (int slot = 0; slot < tmpl.dimensions(); ++slot) {
    const PredicateTemplate& p = tmpl.PredicateForSlot(slot);
    const std::string& table =
        tmpl.tables()[static_cast<size_t>(p.table_index)];
    const ColumnStats& cs = stats.Get(table, p.column);
    sv[static_cast<size_t>(slot)] =
        cs.row_count == 0
            ? 0.0
            : EstimateSelectivity(cs.histogram, p.op,
                                  instance.param(slot).AsDouble());
  }
  return sv;
}

}  // namespace scrpqo::oracle
