#include "query/query_instance.h"

#include <cmath>
#include <sstream>

namespace scrpqo {

std::vector<BoundPredicate> QueryInstance::BoundPredicatesOnTable(
    int table_index) const {
  std::vector<BoundPredicate> out;
  for (const auto& p : template_->predicates()) {
    if (p.table_index != table_index) continue;
    BoundPredicate bp;
    bp.column = p.column;
    bp.op = p.op;
    bp.param_slot = p.param_slot;
    bp.value = p.parameterized() ? param(p.param_slot) : p.literal;
    out.push_back(std::move(bp));
  }
  return out;
}

std::string QueryInstance::ToString() const {
  std::ostringstream os;
  os << template_->name() << "(";
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "$" << i << "=" << params_[i].ToString();
  }
  os << ")";
  return os.str();
}

SVector ComputeSelectivityVector(const Database& db,
                                 const QueryInstance& instance) {
  const QueryTemplate& tmpl = instance.query_template();
  SVector sv(static_cast<size_t>(tmpl.dimensions()));
  tmpl.CompiledSelectivity(db.catalog()).Evaluate(instance, sv);
  return sv;
}

double TableSelectivity(const Database& db, const QueryInstance& instance,
                        int table_index) {
  const QueryTemplate& tmpl = instance.query_template();
  const std::string& table =
      tmpl.tables()[static_cast<size_t>(table_index)];
  double sel = 1.0;
  for (const auto& bp : instance.BoundPredicatesOnTable(table_index)) {
    const ColumnStats& stats = db.catalog().GetColumnStats(table, bp.column);
    sel *= stats.Selectivity(bp.op, bp.value);
  }
  return sel;
}

QueryInstance InstanceForSelectivities(const Database& db,
                                       const QueryTemplate& tmpl,
                                       const SVector& targets) {
  SCRPQO_CHECK(static_cast<int>(targets.size()) == tmpl.dimensions(),
               "target vector dimensionality mismatch");
  std::vector<Value> params;
  params.reserve(targets.size());
  for (int slot = 0; slot < tmpl.dimensions(); ++slot) {
    const PredicateTemplate& p = tmpl.PredicateForSlot(slot);
    const std::string& table =
        tmpl.tables()[static_cast<size_t>(p.table_index)];
    const ColumnStats& stats = db.catalog().GetColumnStats(table, p.column);
    double c = stats.histogram.QuantileForSelectivity(
        p.op, targets[static_cast<size_t>(slot)]);
    const TableDef& def = db.catalog().GetTable(table);
    int col_idx = def.ColumnIndex(p.column);
    SCRPQO_CHECK(col_idx >= 0, "predicate on unknown column");
    if (def.columns[static_cast<size_t>(col_idx)].type == DataType::kInt64) {
      params.emplace_back(static_cast<int64_t>(std::llround(c)));
    } else {
      params.emplace_back(c);
    }
  }
  return QueryInstance(&tmpl, std::move(params));
}

}  // namespace scrpqo
