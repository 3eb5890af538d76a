#include "query/query_template.h"

#include <sstream>

namespace scrpqo {

std::string JoinEdge::ToString() const {
  return "t" + std::to_string(left_table) + "." + left_column + " = t" +
         std::to_string(right_table) + "." + right_column;
}

Status QueryTemplate::AddPredicate(PredicateTemplate pred) {
  if (pred.table_index < 0 || pred.table_index >= num_tables()) {
    return Status::InvalidArgument("predicate references invalid table index");
  }
  if (pred.parameterized()) {
    if (pred.param_slot != dimensions_) {
      return Status::InvalidArgument(
          "parameter slots must be added in order without gaps; expected "
          "slot " +
          std::to_string(dimensions_) + " got " +
          std::to_string(pred.param_slot));
    }
    ++dimensions_;
  }
  predicates_.push_back(std::move(pred));
  selectivity_programs_.Reset();
  return Status::OK();
}

const PredicateTemplate& QueryTemplate::PredicateForSlot(int slot) const {
  for (const auto& p : predicates_) {
    if (p.param_slot == slot) return p;
  }
  SCRPQO_CHECK(false, "no predicate for requested parameter slot");
  return predicates_.front();  // unreachable
}

std::vector<int> QueryTemplate::PredicatesOnTable(int table_index) const {
  std::vector<int> out;
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (predicates_[i].table_index == table_index) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

bool QueryTemplate::IsJoinGraphConnected() const {
  int n = num_tables();
  if (n <= 1) return true;
  std::vector<int> comp(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) comp[static_cast<size_t>(i)] = i;
  // Union-find without rank; n is tiny.
  auto find = [&](int x) {
    while (comp[static_cast<size_t>(x)] != x) x = comp[static_cast<size_t>(x)];
    return x;
  };
  for (const auto& j : joins_) {
    int a = find(j.left_table), b = find(j.right_table);
    comp[static_cast<size_t>(a)] = b;
  }
  int root = find(0);
  for (int i = 1; i < n; ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

std::string QueryTemplate::ToString() const {
  std::ostringstream os;
  os << "QueryTemplate(" << name_ << ", tables=[";
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) os << ", ";
    os << tables_[i];
  }
  os << "], joins=[";
  for (size_t i = 0; i < joins_.size(); ++i) {
    if (i > 0) os << ", ";
    os << joins_[i].ToString();
  }
  os << "], predicates=[";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) os << ", ";
    os << predicates_[i].ToString();
  }
  os << "], d=" << dimensions_ << ")";
  return os.str();
}

}  // namespace scrpqo
