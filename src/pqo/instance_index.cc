#include "pqo/instance_index.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/status.h"

namespace scrpqo {

InstanceKdTree::InstanceKdTree(int dimensions) : dimensions_(dimensions) {
  SCRPQO_CHECK(dimensions >= 1, "k-d tree needs at least one dimension");
}

std::vector<double> InstanceKdTree::ToLogPoint(const SVector& sv) const {
  SCRPQO_CHECK(static_cast<int>(sv.size()) == dimensions_,
               "selectivity vector dimensionality mismatch");
  std::vector<double> p(sv.size());
  for (size_t i = 0; i < sv.size(); ++i) {
    p[i] = std::log(std::max(sv[i], kSelectivityFloor));
  }
  return p;
}

const double* InstanceKdTree::ToLogPointArena(const SVector& sv) const {
  SCRPQO_CHECK(static_cast<int>(sv.size()) == dimensions_,
               "selectivity vector dimensionality mismatch");
  // No Scope here: the point must stay valid while the caller's output
  // ArenaVec grows, so it lives in the caller's (required) enclosing
  // Scope. Bounded: d doubles per query.
  double* p = ScratchArena::Tls().AllocateArray<double>(sv.size());
  for (size_t i = 0; i < sv.size(); ++i) {
    p[i] = std::log(std::max(sv[i], kSelectivityFloor));
  }
  return p;
}

void InstanceKdTree::Insert(int64_t id, const SVector& sv) {
  std::vector<double> point = ToLogPoint(sv);
  std::unique_ptr<Node>* slot = &root_;
  int depth = 0;
  while (*slot != nullptr) {
    int dim = (*slot)->split_dim;
    bool go_left = point[static_cast<size_t>(dim)] <
                   (*slot)->point[static_cast<size_t>(dim)];
    slot = go_left ? &(*slot)->left : &(*slot)->right;
    ++depth;
  }
  auto node = std::make_unique<Node>();
  node->id = id;
  node->point = std::move(point);
  node->split_dim = depth % dimensions_;
  *slot = std::move(node);
  ++size_;
}

std::vector<InstanceKdTree::Match> InstanceKdTree::RangeQuery(
    const SVector& sv, double gl_bound) const {
  std::vector<Match> out;
  // The output is heap-backed, so this wrapper owns the arena Scope that
  // the Into form requires from its caller.
  ScratchArena::Scope scope(ScratchArena::Tls());
  RangeQueryInto(sv, gl_bound, &out);
  return out;
}

std::vector<InstanceKdTree::Match> InstanceKdTree::NearestByGl(
    const SVector& sv, int k) const {
  std::vector<Match> out;
  ScratchArena::Scope scope(ScratchArena::Tls());
  NearestByGlInto(sv, k, &out);
  return out;
}

}  // namespace scrpqo
