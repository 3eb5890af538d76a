// Parameterized query templates: the unit of PQO. A template is a
// select-project-join block over catalog tables with equi-join edges and
// single-column filter predicates, `d` of which are parameterized (paper
// Section 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/predicate.h"
#include "query/selectivity_program.h"

namespace scrpqo {

/// \brief Equi-join between two of the template's tables.
struct JoinEdge {
  int left_table = 0;
  std::string left_column;
  int right_table = 0;
  std::string right_column;

  std::string ToString() const;
};

/// \brief Optional aggregation on top of the join (GROUP BY + COUNT).
struct AggregateSpec {
  bool enabled = false;
  int group_table = 0;
  std::string group_column;
};

class QueryTemplate {
 public:
  QueryTemplate() = default;
  QueryTemplate(std::string name, std::vector<std::string> tables)
      : name_(std::move(name)), tables_(std::move(tables)) {}

  const std::string& name() const { return name_; }
  const std::vector<std::string>& tables() const { return tables_; }
  int num_tables() const { return static_cast<int>(tables_.size()); }

  void AddJoin(JoinEdge edge) { joins_.push_back(std::move(edge)); }
  const std::vector<JoinEdge>& joins() const { return joins_; }

  /// Adds a predicate; parameterized predicates must be added in slot order
  /// (slot ids 0, 1, 2, ... without gaps).
  Status AddPredicate(PredicateTemplate pred);
  const std::vector<PredicateTemplate>& predicates() const {
    return predicates_;
  }

  void SetAggregate(AggregateSpec agg) { aggregate_ = std::move(agg); }
  const AggregateSpec& aggregate() const { return aggregate_; }

  /// Number of parameterized predicates ("dimensions", paper Section 2).
  int dimensions() const { return dimensions_; }

  /// The predicate feeding selectivity dimension `slot`.
  const PredicateTemplate& PredicateForSlot(int slot) const;

  /// This template's compiled sVector program against `catalog`, compiled
  /// on first use and reused until the template changes (a copy or
  /// `AddPredicate` starts over). Safe to call concurrently.
  const SelectivityProgram& CompiledSelectivity(const Catalog& catalog) const {
    return selectivity_programs_.For(*this, catalog);
  }

  /// Indices of predicates (parameterized and literal) on table
  /// `table_index`.
  std::vector<int> PredicatesOnTable(int table_index) const;

  /// True if the join graph connects all tables (required for optimization
  /// without cross products).
  bool IsJoinGraphConnected() const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<std::string> tables_;
  std::vector<JoinEdge> joins_;
  std::vector<PredicateTemplate> predicates_;
  AggregateSpec aggregate_;
  int dimensions_ = 0;
  SelectivityProgramCache selectivity_programs_;
};

}  // namespace scrpqo
