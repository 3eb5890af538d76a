// RecostBundle: SIMD-batched evaluation of many cached plans' flat recost
// programs against one sVector — the engine behind PlanStore's redundancy
// sweep and SCR's ordered cost check.
//
// The flat RecostProgram (recost_program.h) already made a single plan's
// re-cost a linear scan; the remaining cost on the hot path is that the
// sweep runs m of those scans back-to-back, each serializing on its own
// dependency chain. The bundle packs plans with the SAME op-kind sequence
// (identical stack evolution, so one instruction stream drives all of
// them) into per-shape groups of up to 4 four-lane SIMD blocks (16 plans)
// in structure-of-arrays form:
//
//   kinds      kind-major: one byte per step, shared by every block
//   a/b/c/     lane-major doubles per cell (cell = step*nblocks + block),
//   sel_lit    [cell*4 + lane], 64-byte aligned — one aligned vector load
//              feeds a block's step
//   sel ranges per (cell,lane) into one shared slot pool
//
// One pass over a group evaluates all its plans in a single step loop:
// the per-step dispatch is paid once per SHAPE, not once per 4 plans, and
// the blocks' independent dependency chains overlap in the out-of-order
// core (Vec4dScalar everywhere; NEON on aarch64; AVX2+FMA on x86-64,
// runtime-dispatched — see common/simd.h and recost_bundle_kernel.h).
// Dead lanes are padded with a live lane's coefficients: they compute a
// garbage-but-finite cost the caller never reads.
//
// Equivalence: the kernels instantiate the hoisted (HT) forms of the same
// cost_formulas_core.h templates the scalar path uses — identical
// arithmetic up to reassociation of parameter-only products and FMA
// contraction, bounded at 1e-9 relative by the property suite.
//
// Programs longer than the kernels' kMaxBundleSteps stack get a one-lane
// group each and run through RecostProgram::Run, so the bundle holds every
// compiled plan and is the only batch-recost path.
//
// Accounting: EvalMany bills exactly the plans its visitor actually saw —
// identical to a one-Run-per-plan loop in every early-exit case —
// while the lanes_active counter separately records lanes computed, so
// the batching win is observable without perturbing recost-call metrics.
//
// Thread safety: mutation (Add/Remove/Clear) must run under the owning
// store's exclusive lock; EvalMany and the other const readers are safe
// under the shared lock (the tombstone-compaction rebuild is a mutation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/effects.h"
#include "common/scratch_arena.h"
#include "common/simd.h"
#include "common/status.h"
#include "obs/metrics_registry.h"
#include "optimizer/recost_bundle_kernel.h"
#include "optimizer/recost_program.h"
#include "query/query_instance.h"

namespace scrpqo {

struct CostParams;

class RecostBundle {
 public:
  static constexpr int kLanes = bundle_kernel::kBundleLanes;
  static constexpr int kMaxBlocks = bundle_kernel::kMaxBundleBlocks;
  /// Widest group: one shape holds up to this many plans in one pass.
  static constexpr int kMaxLanesPerGroup = kLanes * kMaxBlocks;

  RecostBundle() = default;
  RecostBundle(const RecostBundle&) = delete;
  RecostBundle& operator=(const RecostBundle&) = delete;

  /// Packs `program` (which must stay alive and unmoved until Remove —
  /// PlanStore guarantees this by holding plans behind shared_ptr) into a
  /// lane of a shape-matching group, creating one if needed. A program
  /// longer than kMaxBundleSteps gets a one-lane group of its own that
  /// EvalMany evaluates with RecostProgram::Run. Returns false without
  /// mutating only for a null or empty (never compiled) program.
  bool Add(int plan_id, const RecostProgram* program);

  /// Frees the plan's lane (tombstone). No-op when the plan was never
  /// accepted by Add. Compacts — rebuilding every group densely — once
  /// tombstoned lanes outnumber live ones.
  void Remove(int plan_id);

  /// O(1): plan ids are PlanStore entry indices (small dense ints), so the
  /// lane map is a flat vector — EvalMany does one array read per
  /// candidate where a hash find would cost more than the group pass.
  bool Contains(int plan_id) const {
    return plan_id >= 0 && static_cast<size_t>(plan_id) < lane_of_.size() &&
           lane_of_[static_cast<size_t>(plan_id)].group >= 0;
  }

  void Clear();

  /// Live plans currently packed.
  int num_plans() const { return num_plans_; }

  /// Times Remove triggered a full dense rebuild.
  int64_t rebuilds() const { return rebuilds_; }

  /// Heap bytes held by the packed groups (coefficient lanes, slot pools).
  int64_t memory_bytes() const;

  /// Pack-quality introspection (tests, diagnostics): how many cells took
  /// each selectivity fast path, and how many steps carry the step-level
  /// shared-product hoist. Counts cover groups with live plans only.
  struct PackStats {
    int64_t cells_general = 0;
    int64_t cells_one_slot = 0;
    int64_t cells_literal = 0;
    int64_t cells_uniform = 0;
    int64_t steps_total = 0;
    int64_t steps_shared = 0;
  };
  PackStats pack_stats() const;

  /// Wires the batching telemetry: `lanes_active` accumulates lanes
  /// computed per group pass, `bundle_rebuilds` mirrors rebuilds().
  /// Either may be nullptr. Counters are internally atomic, so EvalMany
  /// may bump them from concurrent readers.
  void SetObsCounters(Counter* lanes_active, Counter* bundle_rebuilds) {
    lanes_active_ = lanes_active;
    bundle_rebuilds_ = bundle_rebuilds;
  }

  /// Per-sweep-invariant evaluation state: the kernel parameter mirror
  /// (with its hoisted products), the dispatch tier, and the source
  /// CostParams (for the sparse-group scalar short-circuit). Cost params
  /// and the CPU tier are stable across millions of getPlan calls, so
  /// callers on the hot path Prepare() once and reuse; `src` must outlive
  /// every EvalMany that uses the Prepared.
  struct Prepared {
    bundle_kernel::RecostKernelParams kp;
    SimdTier tier;
    const CostParams* src;
  };

  static Prepared Prepare(const CostParams& params) {
    return Prepared{ToKernelParams(params), ActiveTier(), &params};
  }

  /// Evaluates `plan_ids` (every id must be Contains()) against `sv` in
  /// the given order, writing plan_ids[i]'s cost into out_costs[i] and
  /// calling visit(i, cost) after each — visit returns false to stop
  /// early. Each group is evaluated at most once per call (its other
  /// requested lanes reuse the cached pass — that is the batching win);
  /// the return value counts only plans the visitor saw, matching a
  /// one-Run-per-plan loop's billing in every early-exit case.
  template <typename Visitor>
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
  SCRPQO_LOCK_BOUNDED()
  size_t EvalMany(std::span<const int> plan_ids, const SVector& sv,
                  const Prepared& prep, std::span<double> out_costs,
                  Visitor&& visit) const {
    // scrpqo-lint: hot-path begin
    SCRPQO_CHECK(out_costs.size() >= plan_ids.size(),
                 "EvalMany output span too small");
    const size_t n = plan_ids.size();
    if (n == 0) return 0;
    // One bundle-wide bound check instead of one per pass: max_slot_
    // tracks the highest sVector slot any live plan binds.
    SCRPQO_CHECK(max_slot_ < static_cast<int>(sv.size()),
                 "selectivity vector too short for recost bundle");
    // Per-call cache of evaluated groups: a done byte per group, and cost
    // rows indexed DIRECTLY by group id — the per-plan loop then computes
    // the row address from ref.group alone (no dependent slot lookup), so
    // the done-byte load and the cost load issue in parallel. Small
    // bundles (the common case: groups are per-shape, so even a 64-plan
    // store holds ~10) use plain stack scratch; only unusually
    // shape-diverse bundles touch the thread's arena (still
    // allocation-free once warmed).
    const size_t ngroups = groups_.size();
    constexpr size_t kStackGroups = 64;
    uint8_t done_stack[kStackGroups];
    double ec_stack[kStackGroups * kMaxLanesPerGroup];
    uint8_t* done = done_stack;
    double* eval_costs = ec_stack;
    std::optional<ScratchArena::Scope> scope;
    if (ngroups > kStackGroups) {
      ScratchArena& arena = ScratchArena::Tls();
      scope.emplace(arena);
      done = arena.AllocateArray<uint8_t>(ngroups);
      eval_costs = arena.AllocateArray<double>(ngroups * kMaxLanesPerGroup);
    }
    std::fill_n(done, ngroups, uint8_t{0});
    size_t visited = 0;
    int64_t lanes_sum = 0;
    const LaneRef* lane_of = lane_of_.data();
    const size_t lane_of_size = lane_of_.size();
    for (size_t i = 0; i < n; ++i) {
      const int id = plan_ids[i];
      SCRPQO_CHECK(id >= 0 && static_cast<size_t>(id) < lane_of_size,
                   "plan id not in recost bundle");
      const LaneRef ref = lane_of[static_cast<size_t>(id)];
      SCRPQO_CHECK(ref.group >= 0, "plan id not in recost bundle");
      double* row =
          eval_costs + static_cast<size_t>(ref.group) * kMaxLanesPerGroup;
      if (done[ref.group] == 0) {
        done[ref.group] = 1;
        const Group& g = groups_[static_cast<size_t>(ref.group)];
        lanes_sum += g.num_active;
        EvalGroup(g, sv, prep, row);
      }
      const double cost = row[ref.lane];
      out_costs[i] = cost;
      ++visited;
      if (!visit(i, cost)) break;
    }
    // One flush per call: a per-pass atomic bump would put ~20 lock-prefix
    // adds on a 64-plan sweep.
    if (lanes_active_ != nullptr && lanes_sum > 0) {
      lanes_active_->Increment(lanes_sum);
    }
    return visited;
    // scrpqo-lint: hot-path end
  }

  /// Convenience overload: prepares per call. Hot paths that sweep many
  /// sVectors against stable cost params should Prepare() once instead.
  template <typename Visitor>
  size_t EvalMany(std::span<const int> plan_ids, const SVector& sv,
                  const CostParams& params, std::span<double> out_costs,
                  Visitor&& visit) const {
    return EvalMany(plan_ids, sv, Prepare(params), out_costs,
                    std::forward<Visitor>(visit));
  }

  /// The kernel tier EvalGroup dispatches to on this process/CPU (after
  /// any ForceTierForTest override).
  static SimdTier ActiveTier();

  /// Tiers runnable here: kScalar4 always, plus the hardware tier when
  /// both compiled in and CPU-supported.
  static std::vector<SimdTier> AvailableTiers();

  /// Test hook: pins dispatch to `tier` (must be in AvailableTiers());
  /// pass force = false to restore auto-detection. Not for concurrent use
  /// with readers.
  static void ForceTierForTest(SimdTier tier, bool force = true);

 private:
  /// 64-byte-aligned double row, RAII around AlignedAlloc.
  class AlignedRow {
   public:
    AlignedRow() = default;
    explicit AlignedRow(std::size_t n)
        : p_(static_cast<double*>(AlignedAlloc(n * sizeof(double)))),
          n_(n) {}
    AlignedRow(AlignedRow&& o) noexcept : p_(o.p_), n_(o.n_) {
      o.p_ = nullptr;
      o.n_ = 0;
    }
    AlignedRow& operator=(AlignedRow&& o) noexcept {
      if (this != &o) {
        AlignedFree(p_);
        p_ = o.p_;
        n_ = o.n_;
        o.p_ = nullptr;
        o.n_ = 0;
      }
      return *this;
    }
    AlignedRow(const AlignedRow&) = delete;
    AlignedRow& operator=(const AlignedRow&) = delete;
    ~AlignedRow() { AlignedFree(p_); }

    double* data() { return p_; }
    const double* data() const { return p_; }
    std::size_t size() const { return n_; }

   private:
    double* p_ = nullptr;
    std::size_t n_ = 0;
  };

  struct Group {
    /// 4-lane SIMD blocks in this group (1..kMaxBlocks). Lane l lives in
    /// block l/kLanes; cell = step*nblocks + block indexes the per-block
    /// step data below.
    int nblocks = 1;
    std::vector<uint8_t> kinds;       // [step]
    AlignedRow a, b, c, sel_lit;      // [cell*kLanes + lane]
    std::vector<uint32_t> sel_begin;  // [cell*kLanes + lane]
    std::vector<uint32_t> sel_end;
    std::vector<int32_t> seek_slot;
    std::vector<int32_t> slots;       // shared pool
    /// Per-cell selectivity / seek fast-path classes (bundle_kernel::kSel*
    /// / kSeek*) and the pre-resolved slot for kSelOneSlot cells — same-
    /// template lanes usually bind identical slots, so most cells collapse
    /// to a scalar product + broadcast instead of per-lane gathers.
    std::vector<uint8_t> sel_mode;    // [cell]
    std::vector<int32_t> sel_slot1;   // [cell*kLanes + lane]
    std::vector<uint8_t> seek_mode;   // [cell]
    /// Step-level hoist: step_sel_shared[step] == 1 when EVERY cell of the
    /// step is kSelUniform with one identical slot list — the kernel then
    /// computes that list's product once per step (begin/end index into
    /// `slots`; zero for unshared steps).
    std::vector<uint8_t> step_sel_shared;   // [step]
    std::vector<uint32_t> step_sel_begin;   // [step]
    std::vector<uint32_t> step_sel_end;     // [step]
    int plan_ids[kMaxLanesPerGroup];
    const RecostProgram* progs[kMaxLanesPerGroup] = {};
    /// Block clustering key per live lane (see BindingHash) — stale for
    /// dead lanes, which every reader skips.
    uint64_t bind_hash[kMaxLanesPerGroup] = {};
    int num_active = 0;
    /// Highest sVector slot any live lane binds.
    int max_slot = -1;
    uint64_t shape_hash = 0;
    /// Kernel view of this group's rows, refreshed after every repack so a
    /// pass starts with zero setup. Pointers target the heap buffers of
    /// the vectors/rows above, so moving the Group (groups_ reallocation)
    /// leaves the view valid.
    bundle_kernel::GroupView view = {};

    Group() {
      for (int l = 0; l < kMaxLanesPerGroup; ++l) plan_ids[l] = -1;
    }
    /// Lanes currently addressable (live or tombstoned).
    int num_lanes() const { return nblocks * kLanes; }
  };

  struct LaneRef {
    int group;
    int lane;
  };

  static bundle_kernel::RecostKernelParams ToKernelParams(
      const CostParams& p);
  static uint64_t ShapeHash(const RecostProgram& program);
  static uint64_t BindingHash(const RecostProgram& program);
  static bool ShapeMatches(const Group& g, const RecostProgram& program);

  /// Free-lane probe for one group: `clean` is a free lane in a block
  /// whose live lanes all carry binding hash `bh` (-1 if none), `any` the
  /// first free lane overall.
  struct LaneProbe {
    int clean = -1;
    int any = -1;
  };
  static LaneProbe ProbeLanes(const Group& g, uint64_t bh);

  /// Writes `program`'s coefficients into `lane` of `g` and re-pads the
  /// group's dead lanes.
  void PackLane(Group& g, int lane, int plan_id,
                const RecostProgram* program);
  /// Rebuilds group `gi` with one more block (same shape, all live lanes
  /// repacked densely; lane_of_ updated). Requires nblocks < kMaxBlocks.
  void GrowGroup(int gi);
  void PadDeadLanes(Group& g);
  /// Reclassifies per-cell fast-path modes AND refreshes g.view — the
  /// final step of every repack.
  void RecomputeSelModes(Group& g);
  void Compact();

  /// One pass over `g`: every lane's cost into out_cost[0..num_lanes()).
  /// Single-live-lane groups (every deep program's among them)
  /// short-circuit to the plan's own scalar Run.
  void EvalGroup(const Group& g, const SVector& sv, const Prepared& prep,
                 double* out_cost) const;

  std::vector<Group> groups_;
  /// Dense plan-id -> lane map ({-1,-1} = absent); plan ids index
  /// PlanStore's entry vector, so this stays small and never sparse.
  std::vector<LaneRef> lane_of_;
  int num_plans_ = 0;
  /// Highest sVector slot bound by ANY live plan — EvalMany's single
  /// bound check. Maintained by Add/Remove/Clear.
  int max_slot_ = -1;
  /// shape_hash -> indices into groups_ (collisions resolved by
  /// ShapeMatches).
  std::unordered_map<uint64_t, std::vector<int>> shape_index_;
  int tombstones_ = 0;
  int64_t rebuilds_ = 0;
  Counter* lanes_active_ = nullptr;
  Counter* bundle_rebuilds_ = nullptr;
};

}  // namespace scrpqo
