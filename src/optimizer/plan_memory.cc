#include "optimizer/plan_memory.h"

namespace scrpqo {

namespace {

int64_t StringBytes(const std::string& s) {
  // Small-string optimization holds ~15 chars inline on mainstream ABIs.
  return s.size() > 15 ? static_cast<int64_t>(s.capacity()) : 0;
}

}  // namespace

int64_t PlanMemoryBytes(const PhysicalPlanNode& plan) {
  int64_t bytes = static_cast<int64_t>(sizeof(PhysicalPlanNode));
  bytes += StringBytes(plan.leaf.table);
  bytes += StringBytes(plan.leaf.index_column);
  for (const auto& p : plan.leaf.preds) {
    bytes += static_cast<int64_t>(sizeof(PredSpec));
    bytes += StringBytes(p.column);
  }
  for (const auto& e : plan.join.edges) {
    bytes += static_cast<int64_t>(sizeof(JoinEdge));
    bytes += StringBytes(e.left_column) + StringBytes(e.right_column);
  }
  bytes += StringBytes(plan.agg.group_column);
  for (const auto& c : plan.children) {
    bytes += static_cast<int64_t>(sizeof(PlanPtr));
    bytes += PlanMemoryBytes(*c);
  }
  return bytes;
}

}  // namespace scrpqo
