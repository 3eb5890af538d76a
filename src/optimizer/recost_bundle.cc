#include "optimizer/recost_bundle.h"

#include <algorithm>
#include <atomic>

#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"

namespace scrpqo {

namespace bk = bundle_kernel;

// The kernel header deliberately mirrors (rather than includes) the
// optimizer types so the AVX2 TU never instantiates shared heavy headers.
// This TU sees both sides; pin the mirrors to the real definitions.
static_assert(static_cast<int>(bk::KernelOpKind::kTableScan) ==
              static_cast<int>(PhysicalOpKind::kTableScan));
static_assert(static_cast<int>(bk::KernelOpKind::kIndexSeek) ==
              static_cast<int>(PhysicalOpKind::kIndexSeek));
static_assert(static_cast<int>(bk::KernelOpKind::kIndexScanOrdered) ==
              static_cast<int>(PhysicalOpKind::kIndexScanOrdered));
static_assert(static_cast<int>(bk::KernelOpKind::kSort) ==
              static_cast<int>(PhysicalOpKind::kSort));
static_assert(static_cast<int>(bk::KernelOpKind::kHashJoin) ==
              static_cast<int>(PhysicalOpKind::kHashJoin));
static_assert(static_cast<int>(bk::KernelOpKind::kMergeJoin) ==
              static_cast<int>(PhysicalOpKind::kMergeJoin));
static_assert(static_cast<int>(bk::KernelOpKind::kIndexedNestedLoopsJoin) ==
              static_cast<int>(PhysicalOpKind::kIndexedNestedLoopsJoin));
static_assert(static_cast<int>(bk::KernelOpKind::kNaiveNestedLoopsJoin) ==
              static_cast<int>(PhysicalOpKind::kNaiveNestedLoopsJoin));
static_assert(static_cast<int>(bk::KernelOpKind::kHashAggregate) ==
              static_cast<int>(PhysicalOpKind::kHashAggregate));
static_assert(static_cast<int>(bk::KernelOpKind::kStreamAggregate) ==
              static_cast<int>(PhysicalOpKind::kStreamAggregate));
// A program that fits the flat path's inline scratch also fits a group.
static_assert(bk::kMaxBundleSteps == RecostProgram::kInlineSlots);
static_assert(RecostBundle::kLanes == 4);

namespace {

/// Auto-detect (-1) or a forced SimdTier value, settable by tests.
std::atomic<int> g_forced_tier{-1};

SimdTier DetectTier() {
#if SCRPQO_SIMD_NEON
  return SimdTier::kNeon;
#else
  if (bk::HaveAvx512Kernel() && CpuSupportsAvx512()) return SimdTier::kAvx512;
  if (bk::HaveAvx2Kernel() && CpuSupportsAvx2Fma()) return SimdTier::kAvx2;
  return SimdTier::kScalar4;
#endif
}

}  // namespace

bk::RecostKernelParams RecostBundle::ToKernelParams(const CostParams& p) {
  bk::RecostKernelParams kp;
  kp.cpu_per_row = p.cpu_per_row;
  kp.io_per_page = p.io_per_page;
  kp.rows_per_page = p.rows_per_page;
  kp.seek_base = p.seek_base;
  kp.index_row_cpu = p.index_row_cpu;
  kp.rid_lookup = p.rid_lookup;
  kp.hash_build_per_row = p.hash_build_per_row;
  kp.hash_probe_per_row = p.hash_probe_per_row;
  kp.merge_per_row = p.merge_per_row;
  kp.sort_per_row_log = p.sort_per_row_log;
  kp.memory_rows = p.memory_rows;
  kp.spill_io_factor = p.spill_io_factor;
  // Derived products for the hoisted formula forms (cost_formulas_core.h):
  // folded once per sweep so the kernels broadcast a scalar instead of
  // recomputing these per step per block.
  const double recip = 1.0 / static_cast<double>(p.rows_per_page);
  kp.scan_cost_per_row = recip * p.io_per_page + p.cpu_per_row;
  kp.per_match = p.index_row_cpu + p.rid_lookup + p.cpu_per_row;
  kp.half_seek_base = 0.5 * p.seek_base;
  kp.spill_per_row = p.spill_io_factor * p.io_per_page * recip;
  return kp;
}

uint64_t RecostBundle::ShapeHash(const RecostProgram& program) {
  // FNV-1a over the op-kind sequence: programs hash equal iff they drive
  // the same switch path (collisions resolved by ShapeMatches).
  uint64_t h = 1469598103934665603ull;
  const RecostProgram::Op* ops = program.ops();
  const int n = program.num_nodes();
  for (int i = 0; i < n; ++i) {
    h ^= ops[i].kind;
    h *= 1099511628211ull;
  }
  h ^= static_cast<uint64_t>(n);
  h *= 1099511628211ull;
  return h;
}

uint64_t RecostBundle::BindingHash(const RecostProgram& program) {
  // Shape hash refined by each op's parameter bindings (seek slot + sel
  // slot list). Lanes with EQUAL binding hashes keep their whole block on
  // the uniform broadcast fast paths; one stray lane forces its block's
  // cells onto the per-lane gather/general path. Used as the block
  // clustering key, never for group membership.
  uint64_t h = 1469598103934665603ull;
  const RecostProgram::Op* ops = program.ops();
  const int32_t* slots = program.slots();
  const int n = program.num_nodes();
  for (int i = 0; i < n; ++i) {
    const RecostProgram::Op& op = ops[i];
    h ^= op.kind;
    h *= 1099511628211ull;
    h ^= static_cast<uint64_t>(op.seek_slot + 1);
    h *= 1099511628211ull;
    for (uint32_t k = op.sel_begin; k != op.sel_end; ++k) {
      h ^= static_cast<uint64_t>(slots[k] + 1);
      h *= 1099511628211ull;
    }
    h ^= 0x9e3779b9ull;
    h *= 1099511628211ull;
  }
  return h;
}

RecostBundle::LaneProbe RecostBundle::ProbeLanes(const Group& g, uint64_t bh) {
  LaneProbe p;
  for (int blk = 0; blk < g.nblocks; ++blk) {
    int free_lane = -1;
    bool clean = true;
    for (int l = blk * kLanes; l < (blk + 1) * kLanes; ++l) {
      if (g.plan_ids[l] < 0) {
        if (free_lane < 0) free_lane = l;
      } else if (g.bind_hash[l] != bh) {
        clean = false;
      }
    }
    if (free_lane < 0) continue;
    if (p.any < 0) p.any = free_lane;
    if (clean) {
      p.clean = free_lane;
      return p;
    }
  }
  return p;
}

bool RecostBundle::ShapeMatches(const Group& g, const RecostProgram& program) {
  const int n = program.num_nodes();
  if (n != static_cast<int>(g.kinds.size())) return false;
  const RecostProgram::Op* ops = program.ops();
  for (int i = 0; i < n; ++i) {
    if (ops[i].kind != g.kinds[static_cast<size_t>(i)]) return false;
  }
  return true;
}

bool RecostBundle::Add(int plan_id, const RecostProgram* program) {
  if (program == nullptr || program->empty()) return false;
  SCRPQO_CHECK(plan_id >= 0, "negative plan id");
  SCRPQO_CHECK(!Contains(plan_id), "plan id already in recost bundle");
  if (static_cast<size_t>(plan_id) >= lane_of_.size()) {
    lane_of_.resize(static_cast<size_t>(plan_id) + 1, LaneRef{-1, -1});
  }
  if (program->num_nodes() > bk::kMaxBundleSteps) {
    // Too deep for the kernels' fixed-size stacks: a one-lane group of its
    // own with nothing packed, kept out of shape_index_ so no other plan
    // (not even one of the same shape) ever joins it. With one live lane,
    // EvalGroup always runs it through Run.
    Group g;
    g.plan_ids[0] = plan_id;
    g.progs[0] = program;
    g.num_active = 1;
    g.max_slot = program->max_binding_slot();
    max_slot_ = std::max(max_slot_, g.max_slot);
    const int gi = static_cast<int>(groups_.size());
    groups_.push_back(std::move(g));
    lane_of_[static_cast<size_t>(plan_id)] = {gi, 0};
    ++num_plans_;
    return true;
  }
  const uint64_t h = ShapeHash(*program);
  const uint64_t bh = BindingHash(*program);
  // Placement order: (1) a free lane in a binding-clean block — one whose
  // live lanes all share this plan's binding hash, so the block keeps its
  // uniform broadcast fast paths; (2) widen an existing group by one block
  // (the new block starts empty, hence clean); (3) any free lane — a
  // mixed block degrades to the per-lane gather path but still beats one
  // scalar pass per plan; (4) a fresh group. Wider groups amortize the
  // per-step dispatch across more plans, which is where the batched
  // path's speedup comes from.
  int growable = -1;
  int fb_group = -1;
  int fb_lane = -1;
  for (int gi : shape_index_[h]) {
    Group& g = groups_[static_cast<size_t>(gi)];
    if (!ShapeMatches(g, *program)) continue;
    const LaneProbe p = ProbeLanes(g, bh);
    if (p.clean >= 0) {
      // Free (possibly tombstoned) lane in a binding-clean block: repack
      // in place.
      PackLane(g, p.clean, plan_id, program);
      lane_of_[static_cast<size_t>(plan_id)] = {gi, p.clean};
      ++num_plans_;
      return true;
    }
    if (fb_group < 0 && p.any >= 0) {
      fb_group = gi;
      fb_lane = p.any;
    }
    if (growable < 0 && g.nblocks < kMaxBlocks) growable = gi;
  }
  if (growable >= 0) {
    GrowGroup(growable);
    Group& g = groups_[static_cast<size_t>(growable)];
    // Re-probe the widened group: growth repacks clusters block-aligned
    // when they fit, so a clean lane may now exist even in an old block,
    // and the fresh last block is clean whenever it stayed empty.
    const LaneProbe p = ProbeLanes(g, bh);
    const int lane = p.clean >= 0 ? p.clean : p.any;
    SCRPQO_CHECK(lane >= 0, "grown group must expose a free lane");
    PackLane(g, lane, plan_id, program);
    lane_of_[static_cast<size_t>(plan_id)] = {growable, lane};
    ++num_plans_;
    return true;
  }
  if (fb_group >= 0) {
    Group& g = groups_[static_cast<size_t>(fb_group)];
    PackLane(g, fb_lane, plan_id, program);
    lane_of_[static_cast<size_t>(plan_id)] = {fb_group, fb_lane};
    ++num_plans_;
    return true;
  }
  const int steps = program->num_nodes();
  Group g;
  g.kinds.resize(static_cast<size_t>(steps));
  const RecostProgram::Op* ops = program->ops();
  for (int i = 0; i < steps; ++i) g.kinds[static_cast<size_t>(i)] = ops[i].kind;
  const std::size_t cells = static_cast<std::size_t>(steps) * kLanes;
  g.a = AlignedRow(cells);
  g.b = AlignedRow(cells);
  g.c = AlignedRow(cells);
  g.sel_lit = AlignedRow(cells);
  g.sel_begin.assign(cells, 0);
  g.sel_end.assign(cells, 0);
  g.seek_slot.assign(cells, -1);
  g.shape_hash = h;
  const int gi = static_cast<int>(groups_.size());
  groups_.push_back(std::move(g));
  shape_index_[h].push_back(gi);
  PackLane(groups_.back(), 0, plan_id, program);
  lane_of_[static_cast<size_t>(plan_id)] = {gi, 0};
  ++num_plans_;
  return true;
}

void RecostBundle::PackLane(Group& g, int lane, int plan_id,
                            const RecostProgram* program) {
  const RecostProgram::Op* ops = program->ops();
  const int32_t* slots = program->slots();
  const int steps = static_cast<int>(g.kinds.size());
  const std::size_t blk = static_cast<std::size_t>(lane) / kLanes;
  const std::size_t sub = static_cast<std::size_t>(lane) % kLanes;
  // If this lane was tombstoned, its old slot ranges stay leaked in the
  // pool until Compact or GrowGroup rebuilds the group — bounded by the
  // tombstone threshold in Remove.
  for (int step = 0; step < steps; ++step) {
    const std::size_t idx =
        (static_cast<std::size_t>(step) * static_cast<std::size_t>(g.nblocks) +
         blk) *
            kLanes +
        sub;
    const RecostProgram::Op& op = ops[step];
    g.a.data()[idx] = op.a;
    g.b.data()[idx] = op.b;
    g.c.data()[idx] = op.c;
    g.sel_lit.data()[idx] = op.sel_lit;
    const uint32_t begin = static_cast<uint32_t>(g.slots.size());
    for (uint32_t k = op.sel_begin; k != op.sel_end; ++k) {
      g.slots.push_back(slots[k]);
    }
    g.sel_begin[idx] = begin;
    g.sel_end[idx] = static_cast<uint32_t>(g.slots.size());
    g.seek_slot[idx] = op.seek_slot;
  }
  g.plan_ids[lane] = plan_id;
  g.progs[lane] = program;
  g.bind_hash[lane] = BindingHash(*program);
  ++g.num_active;
  g.max_slot = std::max(g.max_slot, program->max_binding_slot());
  max_slot_ = std::max(max_slot_, g.max_slot);
  PadDeadLanes(g);
  RecomputeSelModes(g);
}

void RecostBundle::GrowGroup(int gi) {
  Group& old = groups_[static_cast<size_t>(gi)];
  SCRPQO_CHECK(old.nblocks < kMaxBlocks, "group already at maximum width");
  Group g;
  g.nblocks = old.nblocks + 1;
  g.kinds = old.kinds;
  g.shape_hash = old.shape_hash;
  const std::size_t elems = g.kinds.size() *
                            static_cast<std::size_t>(g.nblocks) * kLanes;
  g.a = AlignedRow(elems);
  g.b = AlignedRow(elems);
  g.c = AlignedRow(elems);
  g.sel_lit = AlignedRow(elems);
  g.sel_begin.assign(elems, 0);
  g.sel_end.assign(elems, 0);
  g.seek_slot.assign(elems, -1);
  // Repack live lanes into the wider layout, clustered by binding hash so
  // same-binding plans share blocks (stable sort: original lane order
  // breaks ties, keeping the repack deterministic). Tombstoned lanes (and
  // the slot ranges they leaked into the pool) evaporate here: the fresh
  // group starts with an empty pool and only live plans re-enter it.
  struct LiveLane {
    uint64_t bh;
    int plan_id;
    const RecostProgram* prog;
  };
  LiveLane live[kMaxLanesPerGroup];
  int nlive = 0;
  for (int l = 0; l < old.num_lanes(); ++l) {
    if (old.plan_ids[l] < 0) continue;
    live[nlive++] = {old.bind_hash[l], old.plan_ids[l], old.progs[l]};
  }
  std::stable_sort(live, live + nlive, [](const LiveLane& x, const LiveLane& y) {
    return x.bh < y.bh;
  });
  // Block-align the clusters when the wider group has room: each distinct
  // binding starts at a block boundary, so every block stays clean and
  // keeps its uniform broadcast fast paths. When the padded layout would
  // not fit, fall back to dense packing (some boundary blocks go mixed).
  int needed = 0;
  for (int i = 0; i < nlive;) {
    int j = i;
    while (j < nlive && live[j].bh == live[i].bh) ++j;
    needed += (j - i + kLanes - 1) / kLanes;
    i = j;
  }
  const bool aligned = needed <= g.nblocks;
  int lane = 0;
  for (int i = 0; i < nlive; ++i) {
    if (aligned && i > 0 && live[i].bh != live[i - 1].bh &&
        lane % kLanes != 0) {
      lane += kLanes - lane % kLanes;
    }
    PackLane(g, lane, live[i].plan_id, live[i].prog);
    lane_of_[static_cast<size_t>(live[i].plan_id)] = {gi, lane};
    ++lane;
  }
  groups_[static_cast<size_t>(gi)] = std::move(g);
}

void RecostBundle::PadDeadLanes(Group& g) {
  int global_donor = -1;
  for (int l = 0; l < g.num_lanes(); ++l) {
    if (g.plan_ids[l] >= 0) {
      global_donor = l;
      break;
    }
  }
  if (global_donor < 0) return;
  const int steps = static_cast<int>(g.kinds.size());
  const std::size_t nb = static_cast<std::size_t>(g.nblocks);
  for (int lane = 0; lane < g.num_lanes(); ++lane) {
    if (g.plan_ids[lane] >= 0) continue;
    // Prefer a donor in the SAME block: the block's lanes then stay
    // shape-uniform, which keeps its broadcast/one-slot fast paths open.
    const int blk = lane / kLanes;
    int donor = -1;
    for (int l = blk * kLanes; l < (blk + 1) * kLanes; ++l) {
      if (g.plan_ids[l] >= 0) {
        donor = l;
        break;
      }
    }
    if (donor < 0) donor = global_donor;
    const std::size_t dblk = static_cast<std::size_t>(donor) / kLanes;
    const std::size_t dsub = static_cast<std::size_t>(donor) % kLanes;
    const std::size_t sub = static_cast<std::size_t>(lane) % kLanes;
    for (int step = 0; step < steps; ++step) {
      const std::size_t row = static_cast<std::size_t>(step) * nb;
      const std::size_t idx = (row + static_cast<std::size_t>(blk)) * kLanes +
                              sub;
      const std::size_t didx = (row + dblk) * kLanes + dsub;
      // Replicate the donor's full step — coefficients AND sel range (the
      // range indexes the shared pool, so copying it is just two ints).
      // The dead lane then computes exactly the donor's cost: finite,
      // never read, in-bounds, and shape-uniform so the one-slot gather
      // fast path stays available.
      g.a.data()[idx] = g.a.data()[didx];
      g.b.data()[idx] = g.b.data()[didx];
      g.c.data()[idx] = g.c.data()[didx];
      g.sel_lit.data()[idx] = g.sel_lit.data()[didx];
      g.sel_begin[idx] = g.sel_begin[didx];
      g.sel_end[idx] = g.sel_end[didx];
      g.seek_slot[idx] = g.seek_slot[didx];
    }
  }
}

void RecostBundle::RecomputeSelModes(Group& g) {
  // Modes are classified per CELL (one block of one step): blocks of a
  // group can take different fast paths independently.
  const int cells = static_cast<int>(g.kinds.size()) * g.nblocks;
  g.sel_mode.resize(static_cast<size_t>(cells));
  g.sel_slot1.resize(static_cast<size_t>(cells) * kLanes);
  g.seek_mode.resize(static_cast<size_t>(cells));
  for (int step = 0; step < cells; ++step) {
    const std::size_t base = static_cast<std::size_t>(step) * kLanes;
    const uint32_t b0 = g.sel_begin[base];
    const uint32_t len0 = g.sel_end[base] - b0;
    bool all_zero = len0 == 0;
    bool all_one = len0 == 1;
    // Lanes hold plans of one template, so a step's leaf usually binds
    // the identical slot list in every lane — the broadcast fast path.
    bool uniform = len0 >= 1;
    for (int l = 1; l < kLanes; ++l) {
      const std::size_t idx = base + static_cast<size_t>(l);
      const uint32_t bl = g.sel_begin[idx];
      const uint32_t len = g.sel_end[idx] - bl;
      all_zero = all_zero && len == 0;
      all_one = all_one && len == 1;
      uniform = uniform && len == len0;
      for (uint32_t k = 0; uniform && k < len0; ++k) {
        uniform = g.slots[bl + k] == g.slots[b0 + k];
      }
    }
    if (all_zero) {
      g.sel_mode[static_cast<size_t>(step)] = bk::kSelAllLiteral;
    } else if (uniform) {
      g.sel_mode[static_cast<size_t>(step)] = bk::kSelUniform;
    } else if (all_one) {
      g.sel_mode[static_cast<size_t>(step)] = bk::kSelOneSlot;
      for (int l = 0; l < kLanes; ++l) {
        const std::size_t idx = base + static_cast<size_t>(l);
        g.sel_slot1[idx] = g.slots[g.sel_begin[idx]];
      }
    } else {
      g.sel_mode[static_cast<size_t>(step)] = bk::kSelGeneral;
    }
    const int32_t s0 = g.seek_slot[base];
    bool all_const = s0 < 0;
    bool uniform_slot = s0 >= 0;
    for (int l = 1; l < kLanes; ++l) {
      const int32_t sl = g.seek_slot[base + static_cast<size_t>(l)];
      all_const = all_const && sl < 0;
      uniform_slot = uniform_slot && sl == s0;
    }
    if (all_const) {
      g.seek_mode[static_cast<size_t>(step)] = bk::kSeekAllConst;
    } else if (uniform_slot) {
      g.seek_mode[static_cast<size_t>(step)] = bk::kSeekUniformSlot;
    } else {
      g.seek_mode[static_cast<size_t>(step)] = bk::kSeekMixed;
    }
  }
  // Step-level hoist classification: a step is "shared" when every one of
  // its cells is kSelUniform with the identical slot list — binding-
  // clustered placement makes this the dominant multi-block case, and the
  // kernel then forms the slot product once per step instead of per block.
  const int nsteps = static_cast<int>(g.kinds.size());
  g.step_sel_shared.assign(static_cast<size_t>(nsteps), 0);
  g.step_sel_begin.assign(static_cast<size_t>(nsteps), 0);
  g.step_sel_end.assign(static_cast<size_t>(nsteps), 0);
  for (int step = 0; step < nsteps; ++step) {
    const std::size_t cell00 =
        static_cast<std::size_t>(step) * static_cast<std::size_t>(g.nblocks);
    if (g.sel_mode[cell00] != bk::kSelUniform) continue;
    // Block 0 lane 0 is the step's representative list (each kSelUniform
    // cell's lanes already agree internally).
    const uint32_t b0 = g.sel_begin[cell00 * kLanes];
    const uint32_t len0 = g.sel_end[cell00 * kLanes] - b0;
    bool shared = true;
    for (int blk = 1; shared && blk < g.nblocks; ++blk) {
      const std::size_t cell = cell00 + static_cast<std::size_t>(blk);
      if (g.sel_mode[cell] != bk::kSelUniform) {
        shared = false;
        break;
      }
      const uint32_t bb = g.sel_begin[cell * kLanes];
      shared = g.sel_end[cell * kLanes] - bb == len0;
      for (uint32_t k = 0; shared && k < len0; ++k) {
        shared = g.slots[bb + k] == g.slots[b0 + k];
      }
    }
    if (shared) {
      g.step_sel_shared[static_cast<size_t>(step)] = 1;
      g.step_sel_begin[static_cast<size_t>(step)] = b0;
      g.step_sel_end[static_cast<size_t>(step)] = b0 + len0;
    }
  }
  // Refresh the cached kernel view LAST: the resizes above may have moved
  // the mode vectors' buffers. A pass then reads the view as-is instead of
  // assembling fourteen fields per group.
  g.view.num_steps = static_cast<int>(g.kinds.size());
  g.view.num_blocks = g.nblocks;
  g.view.kinds = g.kinds.data();
  g.view.a = g.a.data();
  g.view.b = g.b.data();
  g.view.c = g.c.data();
  g.view.sel_lit = g.sel_lit.data();
  g.view.sel_begin = g.sel_begin.data();
  g.view.sel_end = g.sel_end.data();
  g.view.seek_slot = g.seek_slot.data();
  g.view.slots = g.slots.data();
  g.view.sel_mode = g.sel_mode.data();
  g.view.sel_slot1 = g.sel_slot1.data();
  g.view.seek_mode = g.seek_mode.data();
  g.view.step_sel_shared = g.step_sel_shared.data();
  g.view.step_sel_begin = g.step_sel_begin.data();
  g.view.step_sel_end = g.step_sel_end.data();
}

void RecostBundle::Remove(int plan_id) {
  if (!Contains(plan_id)) return;
  const LaneRef ref = lane_of_[static_cast<size_t>(plan_id)];
  Group& g = groups_[static_cast<size_t>(ref.group)];
  const int lane = ref.lane;
  g.plan_ids[lane] = -1;
  g.progs[lane] = nullptr;
  --g.num_active;
  lane_of_[static_cast<size_t>(plan_id)] = {-1, -1};
  --num_plans_;
  ++tombstones_;
  if (g.num_active > 0) {
    // max_slot only shrinks; recompute so the per-pass sVector bound
    // check stays tight.
    g.max_slot = -1;
    for (int l = 0; l < g.num_lanes(); ++l) {
      if (g.progs[l] != nullptr) {
        g.max_slot = std::max(g.max_slot, g.progs[l]->max_binding_slot());
      }
    }
    PadDeadLanes(g);
    RecomputeSelModes(g);
  }
  // max_slot_ only shrinks on removal; recompute from the per-group maxima
  // so EvalMany's single bound check stays tight.
  max_slot_ = -1;
  for (const Group& other : groups_) {
    if (other.num_active > 0) max_slot_ = std::max(max_slot_, other.max_slot);
  }
  // Empty groups stay as placeholders (erasing would shift group indices
  // under lane_of_); Compact reclaims them once tombstoned lanes outnumber
  // live plans.
  if (tombstones_ > num_plans_) Compact();
}

void RecostBundle::Compact() {
  std::vector<std::pair<int, const RecostProgram*>> live;
  live.reserve(static_cast<size_t>(num_plans_));
  // Ascending plan-id order: deterministic repack.
  for (size_t id = 0; id < lane_of_.size(); ++id) {
    const LaneRef ref = lane_of_[id];
    if (ref.group < 0) continue;
    live.emplace_back(static_cast<int>(id),
                      groups_[static_cast<size_t>(ref.group)].progs[ref.lane]);
  }
  groups_.clear();
  lane_of_.clear();
  num_plans_ = 0;
  max_slot_ = -1;
  shape_index_.clear();
  tombstones_ = 0;
  for (const auto& [plan_id, prog] : live) {
    const bool ok = Add(plan_id, prog);
    SCRPQO_CHECK(ok, "previously bundled plan must rebundle on compaction");
  }
  ++rebuilds_;
  if (bundle_rebuilds_ != nullptr) bundle_rebuilds_->Increment();
}

void RecostBundle::Clear() {
  groups_.clear();
  lane_of_.clear();
  num_plans_ = 0;
  max_slot_ = -1;
  shape_index_.clear();
  tombstones_ = 0;
}

int64_t RecostBundle::memory_bytes() const {
  int64_t bytes = 0;
  for (const Group& g : groups_) {
    bytes += static_cast<int64_t>(g.kinds.capacity());
    bytes += static_cast<int64_t>(
        (g.a.size() + g.b.size() + g.c.size() + g.sel_lit.size()) *
        sizeof(double));
    bytes += static_cast<int64_t>(
        (g.sel_begin.capacity() + g.sel_end.capacity()) * sizeof(uint32_t));
    bytes += static_cast<int64_t>(
        (g.seek_slot.capacity() + g.slots.capacity() +
         g.sel_slot1.capacity()) *
        sizeof(int32_t));
    bytes += static_cast<int64_t>(g.sel_mode.capacity());
    bytes += static_cast<int64_t>(g.seek_mode.capacity());
    bytes += static_cast<int64_t>(g.step_sel_shared.capacity());
    bytes += static_cast<int64_t>(
        (g.step_sel_begin.capacity() + g.step_sel_end.capacity()) *
        sizeof(uint32_t));
  }
  bytes += static_cast<int64_t>(lane_of_.capacity() * sizeof(LaneRef));
  return bytes;
}

RecostBundle::PackStats RecostBundle::pack_stats() const {
  PackStats st;
  for (const Group& g : groups_) {
    if (g.num_active == 0) continue;
    const size_t cells = g.kinds.size() * static_cast<size_t>(g.nblocks);
    for (size_t c = 0; c < cells; ++c) {
      switch (g.sel_mode[c]) {
        case bk::kSelGeneral: ++st.cells_general; break;
        case bk::kSelOneSlot: ++st.cells_one_slot; break;
        case bk::kSelAllLiteral: ++st.cells_literal; break;
        default: ++st.cells_uniform; break;
      }
    }
    st.steps_total += static_cast<int64_t>(g.kinds.size());
    for (uint8_t s : g.step_sel_shared) st.steps_shared += s;
  }
  return st;
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
SCRPQO_LOCK_BOUNDED()
void RecostBundle::EvalGroup(const Group& g, const SVector& sv,
                             const Prepared& prep, double* out_cost) const {
  // scrpqo-lint: hot-path begin
  if (g.num_active == 1) {
    // Sparse group: one scalar Run beats a vector pass that computes
    // every padded lane for nothing. Every deep program's group (see Add)
    // takes this branch, so no program longer than kMaxBundleSteps ever
    // reaches a kernel.
    for (int l = 0; l < g.num_lanes(); ++l) {
      if (g.progs[l] != nullptr) {
        out_cost[l] = g.progs[l]->Run(sv, *prep.src);
        return;
      }
    }
  }
  switch (prep.tier) {
#if !SCRPQO_SIMD_NEON
    case SimdTier::kAvx512:
      bk::EvalGroupAvx512(g.view, sv.data(), prep.kp, out_cost);
      return;
    case SimdTier::kAvx2:
      bk::EvalGroupAvx2(g.view, sv.data(), prep.kp, out_cost);
      return;
#else
    case SimdTier::kNeon:
      bk::EvalGroupT<Vec4dNeon>(g.view, sv.data(), prep.kp, out_cost);
      return;
#endif
    default:
      bk::EvalGroupT<Vec4dScalar>(g.view, sv.data(), prep.kp, out_cost);
      return;
  }
  // scrpqo-lint: hot-path end
}

SimdTier RecostBundle::ActiveTier() {
  const int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdTier>(forced);
  static const SimdTier detected = DetectTier();
  return detected;
}

std::vector<SimdTier> RecostBundle::AvailableTiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar4};
#if SCRPQO_SIMD_NEON
  tiers.push_back(SimdTier::kNeon);
#else
  if (bk::HaveAvx2Kernel() && CpuSupportsAvx2Fma()) {
    tiers.push_back(SimdTier::kAvx2);
  }
  if (bk::HaveAvx512Kernel() && CpuSupportsAvx512()) {
    tiers.push_back(SimdTier::kAvx512);
  }
#endif
  return tiers;
}

void RecostBundle::ForceTierForTest(SimdTier tier, bool force) {
  if (!force) {
    g_forced_tier.store(-1, std::memory_order_relaxed);
    return;
  }
  const std::vector<SimdTier> avail = AvailableTiers();
  SCRPQO_CHECK(std::find(avail.begin(), avail.end(), tier) != avail.end(),
               "forced SIMD tier not available on this host");
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

}  // namespace scrpqo
