// Spatial index over stored instances (paper Section 6.2: "the overheads
// can also be improved by exploiting ... a spatial index that can provide
// such instances without scanning the entire list").
//
// The selectivity check asks: does any stored instance qe satisfy
// G(qe, qc) * L(qe, qc) <= bound? Working in log-selectivity space turns
// G*L into an L1 distance: log(G*L) = sum_i |log s_i(qc) - log s_i(qe)|.
// A k-d tree over log-selectivity points therefore answers the check as an
// L1 range query, and enumerates cost-check candidates in ascending-GL
// order as a nearest-neighbour sweep.
//
// The query entry points come in two forms: the RangeQueryInto /
// NearestByGlInto templates append into any vector-like container —
// getPlan's hot path hands them an ArenaVec so a warmed query allocates
// nothing — and the std::vector-returning wrappers remain for tools and
// tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/atomics.h"
#include "common/effects.h"
#include "common/scratch_arena.h"
#include "query/query_instance.h"

namespace scrpqo {

class InstanceKdTree {
 public:
  /// `dimensions` is the template's d; points are inserted incrementally.
  explicit InstanceKdTree(int dimensions);

  /// Inserts a stored instance's selectivity vector under `id` (an opaque
  /// caller key, e.g. the instance-list position). There is no removal: a
  /// caller whose keys change rebuilds the tree.
  void Insert(int64_t id, const SVector& sv);

  struct Match {
    int64_t id = -1;
    /// log(G * L) between the stored point and the query point.
    double log_gl = 0.0;
  };

  /// Appends all entries with G*L <= gl_bound for `sv` to `out`,
  /// unordered. `OutVec` is any Match container with push_back (ArenaVec
  /// on the hot path). Query scratch comes from the calling thread's
  /// ScratchArena, so an enclosing Scope must be active when `out` is an
  /// ArenaVec (TryReuse's scope covers this); the std::vector wrapper
  /// below opens its own.
  template <typename OutVec>
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
  void RangeQueryInto(const SVector& sv, double gl_bound, OutVec* out) const {
    int64_t visited = 0;
    if (gl_bound >= 1.0) {
      const double* q = ToLogPointArena(sv);
      RangeRec(root_.get(), q, std::log(gl_bound), out, &visited);
    }
    nodes_visited_.Store(visited);
  }

  /// Appends the `k` entries with smallest G*L for `sv` to `out`,
  /// ascending. This is the cost-check candidate stream. Same scratch
  /// contract as RangeQueryInto; `out` must be empty on entry (it is used
  /// as the working heap).
  template <typename OutVec>
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
  void NearestByGlInto(const SVector& sv, int k, OutVec* out) const {
    if (k <= 0) {
      nodes_visited_.Store(0);
      return;
    }
    int64_t visited = 0;
    const double* q = ToLogPointArena(sv);
    NearestRec(root_.get(), q, k, out, &visited);
    nodes_visited_.Store(visited);
    std::sort(out->begin(), out->end(),
              [](const Match& a, const Match& b) {
                return a.log_gl < b.log_gl;
              });
  }

  /// All entries with G*L <= gl_bound for `sv`, unordered.
  std::vector<Match> RangeQuery(const SVector& sv, double gl_bound) const;

  /// The `k` entries with smallest G*L for `sv`, ascending.
  std::vector<Match> NearestByGl(const SVector& sv, int k) const;

  int64_t size() const { return size_; }

  /// Nodes visited by the last query (instrumentation for the pruning
  /// claim: visits << size once the tree is populated). Each query counts
  /// locally and publishes once, so concurrent readers see some recent
  /// query's count rather than a torn mix.
  int64_t last_query_nodes_visited() const { return nodes_visited_.value(); }

 private:
  struct Node {
    int64_t id;
    std::vector<double> point;  // log-selectivities
    int split_dim = 0;
    std::unique_ptr<Node> left, right;
  };

  std::vector<double> ToLogPoint(const SVector& sv) const;

  /// `sv` as a log-point in the calling thread's arena (dies with the
  /// enclosing Scope).
  const double* ToLogPointArena(const SVector& sv) const;

  template <typename OutVec>
  void RangeRec(const Node* node, const double* q, double bound,
                OutVec* out, int64_t* visited) const {
    if (node == nullptr) return;
    ++*visited;
    double dist = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(dimensions_); ++i) {
      dist += std::fabs(q[i] - node->point[i]);
      if (dist > bound) break;
    }
    if (dist <= bound) {
      out->push_back(Match{node->id, dist});
    }
    int dim = node->split_dim;
    double delta = q[static_cast<size_t>(dim)] -
                   node->point[static_cast<size_t>(dim)];
    // The near side always; the far side only if the splitting plane is
    // within `bound` (L1 balls project to intervals per axis).
    const Node* near = delta < 0 ? node->left.get() : node->right.get();
    const Node* far = delta < 0 ? node->right.get() : node->left.get();
    RangeRec(near, q, bound, out, visited);
    if (std::fabs(delta) <= bound) RangeRec(far, q, bound, out, visited);
  }

  /// Best-first k-NN under L1 distance; `heap` is a max-heap on distance.
  template <typename OutVec>
  void NearestRec(const Node* node, const double* q, int k, OutVec* heap,
                  int64_t* visited) const {
    if (node == nullptr) return;
    ++*visited;
    double dist = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(dimensions_); ++i) {
      dist += std::fabs(q[i] - node->point[i]);
    }
    auto worst = [&heap]() {
      return heap->empty() ? std::numeric_limits<double>::infinity()
                           : heap->front().log_gl;
    };
    auto cmp = [](const Match& a, const Match& b) {
      return a.log_gl < b.log_gl;  // max-heap on distance
    };
    if (static_cast<int>(heap->size()) < k || dist < worst()) {
      heap->push_back(Match{node->id, dist});
      std::push_heap(heap->begin(), heap->end(), cmp);
      if (static_cast<int>(heap->size()) > k) {
        std::pop_heap(heap->begin(), heap->end(), cmp);
        heap->pop_back();
      }
    }
    int dim = node->split_dim;
    double delta = q[static_cast<size_t>(dim)] -
                   node->point[static_cast<size_t>(dim)];
    const Node* near = delta < 0 ? node->left.get() : node->right.get();
    const Node* far = delta < 0 ? node->right.get() : node->left.get();
    NearestRec(near, q, k, heap, visited);
    if (static_cast<int>(heap->size()) < k || std::fabs(delta) < worst()) {
      NearestRec(far, q, k, heap, visited);
    }
  }

  int dimensions_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  mutable RelaxedCounter<int64_t> nodes_visited_ = 0;
};

}  // namespace scrpqo
