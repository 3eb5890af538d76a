// Query instances and the selectivity-vector (sVector) API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "expr/value.h"
#include "query/query_template.h"
#include "storage/database.h"

namespace scrpqo {

/// Selectivity vector: one entry per parameterized predicate, paper
/// Section 2's sVector.
using SVector = std::vector<double>;

/// \brief A query template with all parameter slots bound.
class QueryInstance {
 public:
  QueryInstance() = default;
  QueryInstance(const QueryTemplate* tmpl, std::vector<Value> params)
      : template_(tmpl), params_(std::move(params)) {
    SCRPQO_CHECK(static_cast<int>(params_.size()) == tmpl->dimensions(),
                 "parameter count must equal template dimensionality");
  }

  const QueryTemplate& query_template() const { return *template_; }
  const std::vector<Value>& params() const { return params_; }
  const Value& param(int slot) const {
    return params_[static_cast<size_t>(slot)];
  }

  /// All predicates on `table_index` with parameters substituted.
  std::vector<BoundPredicate> BoundPredicatesOnTable(int table_index) const;

  std::string ToString() const;

 private:
  const QueryTemplate* template_ = nullptr;
  std::vector<Value> params_;
};

/// \brief Engine API #1 (paper Appendix B): computes the selectivities of
/// the instance's parameterized predicates from catalog statistics,
/// short-circuiting any plan search. Runs the template's compiled
/// `SelectivityProgram` against `db`'s catalog (DESIGN.md §4k).
SVector ComputeSelectivityVector(const Database& db,
                                 const QueryInstance& instance);

/// Combined selectivity (parameterized and literal predicates, independence
/// assumed) of all predicates on one of the instance's tables.
double TableSelectivity(const Database& db, const QueryInstance& instance,
                        int table_index);

/// \brief Inverts estimation: builds an instance whose estimated sVector is
/// (approximately) `targets`, using histogram quantiles. The workhorse of
/// workload generation (paper Section 7.1).
QueryInstance InstanceForSelectivities(const Database& db,
                                       const QueryTemplate& tmpl,
                                       const SVector& targets);

}  // namespace scrpqo
