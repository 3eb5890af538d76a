// RecostBundle property suite: the SIMD-batched bundle must agree with the
// flat program scan and the tree walker at every kernel tier, preserve the
// visitor's early-exit billing exactly, survive incremental store/evict
// patching (including tombstone-compaction rebuilds), and keep the warmed
// getPlan reuse path allocation-free (asserted through the ScratchArena
// watermark plus a global operator-new counter). Any divergence here either
// breaks the paper's lambda guarantee or silently re-introduces the
// per-decision overheads the bundle exists to remove.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "common/thread_annotations.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "optimizer/recost_bundle.h"
#include "pqo/plan_store.h"
#include "pqo/scr.h"
#include "query/selectivity_program.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

// ---------------------------------------------------------------------------
// Global operator-new counter. Replacing the global allocator in one TU
// covers the whole test binary; the override only counts and forwards, so
// every other test is unaffected. The zero-allocation test reads the
// counter around its measured window.
// ---------------------------------------------------------------------------

static std::atomic<int64_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace scrpqo {
namespace {

/// Restores auto-detected tier dispatch when a test scope ends.
struct TierGuard {
  ~TierGuard() { RecostBundle::ForceTierForTest(SimdTier::kScalar4, false); }
};

/// Stats-only universe shared across the property instantiations.
struct Universe {
  std::vector<BenchmarkDb> dbs;
  std::vector<BoundTemplate> templates;

  Universe() {
    SchemaScale scale;
    scale.factor = 0.12;
    dbs = BuildAllDatabases(scale);
    TemplateGenOptions topts;
    topts.num_templates = 16;
    topts.max_tables = 4;
    templates = BuildTemplates(dbs, topts);
  }

  static Universe& Get() {
    static Universe* u = new Universe();
    return *u;
  }
};

/// Optimizes a few instances under `mask`'s operator set and returns their
/// cached plans behind stable addresses (the bundle keeps raw program
/// pointers).
std::vector<std::unique_ptr<CachedPlan>> BuildPlans(
    const BoundTemplate& bt, int mask, int per_mask, uint64_t seed,
    std::unique_ptr<Optimizer>* optimizer_out) {
  OptimizerOptions opts;
  opts.enable_merge_join = mask & 1;
  opts.enable_indexed_nlj = mask & 2;
  opts.enable_index_seek = mask & 4;
  auto optimizer = std::make_unique<Optimizer>(&bt.db->db, opts);
  InstanceGenOptions gen;
  gen.m = per_mask;
  gen.seed = seed;
  std::vector<std::unique_ptr<CachedPlan>> plans;
  for (const auto& wi : GenerateInstances(bt, gen)) {
    OptimizationResult r =
        optimizer->OptimizeWithSVector(wi.instance, wi.svector);
    if (r.plan == nullptr) continue;
    plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
  }
  *optimizer_out = std::move(optimizer);
  return plans;
}

class RecostBundlePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const BoundTemplate& Template() {
    return Universe::Get().templates[static_cast<size_t>(GetParam())];
  }
};

TEST_P(RecostBundlePropertyTest, BundleMatchesFlatAndTreeAcrossTiers) {
  const BoundTemplate& bt = Template();
  Pcg32 rng(991 + static_cast<uint64_t>(GetParam()));
  int d = bt.tmpl->dimensions();
  TierGuard restore_tier;
  for (int mask = 0; mask < 8; ++mask) {
    std::unique_ptr<Optimizer> optimizer;
    auto plans = BuildPlans(bt, mask, /*per_mask=*/3,
                            5100 + static_cast<uint64_t>(GetParam() * 8 + mask),
                            &optimizer);
    ASSERT_FALSE(plans.empty());
    const CostParams& params = optimizer->cost_model().params();

    RecostBundle bundle;
    std::vector<int> ids;
    for (size_t i = 0; i < plans.size(); ++i) {
      ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
      ids.push_back(static_cast<int>(i));
    }

    // A handful of re-cost points per mask: the optimized neighborhood
    // plus random draws over the whole selectivity cube.
    std::vector<SVector> points;
    for (int k = 0; k < 4; ++k) {
      SVector sv(static_cast<size_t>(d));
      for (int dim = 0; dim < d; ++dim) {
        sv[static_cast<size_t>(dim)] = rng.UniformDouble(0.001, 1.0);
      }
      points.push_back(std::move(sv));
    }
    points.emplace_back(static_cast<size_t>(d), 1e-7);
    points.emplace_back(static_cast<size_t>(d), 1.0);

    for (SimdTier tier : RecostBundle::AvailableTiers()) {
      RecostBundle::ForceTierForTest(tier);
      ASSERT_EQ(RecostBundle::ActiveTier(), tier);
      for (const SVector& sv : points) {
        std::vector<double> costs(ids.size());
        size_t visited = bundle.EvalMany(
            std::span<const int>(ids), sv, params,
            std::span<double>(costs),
            [](size_t, double) { return true; });
        ASSERT_EQ(visited, ids.size());
        for (size_t i = 0; i < ids.size(); ++i) {
          double flat = plans[i]->program.Run(sv, params);
          double tree =
              optimizer->cost_model().RecostTree(*plans[i]->plan, sv);
          EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9)
              << "tier=" << SimdTierName(tier) << " mask=" << mask
              << " plan=" << i;
          EXPECT_NEAR(costs[i], tree, std::abs(tree) * 1e-9)
              << "tier=" << SimdTierName(tier) << " mask=" << mask
              << " plan=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, RecostBundlePropertyTest,
                         ::testing::Range(0, 16));

class RecostBundleTest : public ::testing::Test {
 protected:
  RecostBundleTest() : db_(testing::MakeSmallDatabase(20000, 500)) {}

  /// Join-template plans at spread-out operating points (stable addresses).
  std::vector<std::unique_ptr<CachedPlan>> MakePlans(int m) {
    auto tmpl = testing::MakeJoinTemplate();
    optimizer_ = std::make_unique<Optimizer>(&db_);
    Pcg32 rng(77);
    std::vector<std::unique_ptr<CachedPlan>> plans;
    for (int i = 0; i < m; ++i) {
      QueryInstance q = InstanceForSelectivities(
          db_, *tmpl,
          {rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)});
      OptimizationResult r = optimizer_->Optimize(q);
      plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
    }
    return plans;
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(RecostBundleTest, EarlyExitBillsVisitedPlansOnly) {
  auto plans = MakePlans(10);
  const CostParams& params = optimizer_->cost_model().params();
  RecostBundle bundle;
  std::vector<int> ids;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
    ids.push_back(static_cast<int>(i));
  }
  SVector sv{0.25, 0.6};
  for (size_t stop_at = 0; stop_at < ids.size(); ++stop_at) {
    std::vector<double> costs(ids.size(), -1.0);
    size_t seen = 0;
    size_t visited = bundle.EvalMany(
        std::span<const int>(ids), sv, params, std::span<double>(costs),
        [&](size_t idx, double) {
          ++seen;
          return idx != stop_at;  // stop after visiting stop_at
        });
    // Billing parity with the legacy one-Run-per-plan loop: exactly the
    // plans the visitor saw, regardless of how many lanes were computed.
    EXPECT_EQ(visited, stop_at + 1);
    EXPECT_EQ(seen, stop_at + 1);
    for (size_t i = 0; i <= stop_at; ++i) {
      double flat = plans[i]->program.Run(sv, params);
      EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9);
    }
  }
}

TEST_F(RecostBundleTest, DuplicateIdsReuseTheGroupPass) {
  auto plans = MakePlans(4);
  const CostParams& params = optimizer_->cost_model().params();
  RecostBundle bundle;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
  }
  // The same plan requested several times (distinct instance entries can
  // share one cached plan) must yield identical costs per request.
  std::vector<int> ids = {2, 0, 2, 1, 0, 2};
  SVector sv{0.4, 0.1};
  std::vector<double> costs(ids.size());
  size_t visited =
      bundle.EvalMany(std::span<const int>(ids), sv, params,
                      std::span<double>(costs),
                      [](size_t, double) { return true; });
  EXPECT_EQ(visited, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    double flat =
        plans[static_cast<size_t>(ids[i])]->program.Run(sv, params);
    EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9);
  }
}

TEST_F(RecostBundleTest, RejectsUnbundleablePrograms) {
  RecostBundle bundle;
  RecostProgram empty;
  EXPECT_FALSE(bundle.Add(0, &empty));
  EXPECT_FALSE(bundle.Contains(0));
  EXPECT_FALSE(bundle.Add(1, nullptr));
  EXPECT_EQ(bundle.num_plans(), 0);
}

TEST_F(RecostBundleTest, IncrementalPatchMatchesFreshBundle) {
  auto plans = MakePlans(12);
  const CostParams& params = optimizer_->cost_model().params();

  // Patched bundle: add everything, evict most of it (forcing the
  // tombstone compaction), then re-admit a few — the StoreOrReuse/evict
  // life cycle in miniature.
  RecostBundle patched;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(patched.Add(static_cast<int>(i), &plans[i]->program));
  }
  for (int id : {1, 3, 5, 7, 9, 11, 2, 4}) patched.Remove(id);
  EXPECT_GE(patched.rebuilds(), 1) << "compaction should have triggered";
  for (int id : {3, 9}) {
    ASSERT_TRUE(
        patched.Add(id, &plans[static_cast<size_t>(id)]->program));
  }
  std::vector<int> live = {0, 6, 8, 10, 3, 9};
  for (int id : live) EXPECT_TRUE(patched.Contains(id));
  EXPECT_EQ(patched.num_plans(), static_cast<int>(live.size()));

  // Fresh bundle over the same survivors.
  RecostBundle fresh;
  for (int id : live) {
    ASSERT_TRUE(fresh.Add(id, &plans[static_cast<size_t>(id)]->program));
  }

  Pcg32 rng(55);
  for (int k = 0; k < 8; ++k) {
    SVector sv{rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)};
    std::vector<double> got(live.size()), want(live.size());
    patched.EvalMany(std::span<const int>(live), sv, params,
                     std::span<double>(got),
                     [](size_t, double) { return true; });
    fresh.EvalMany(std::span<const int>(live), sv, params,
                   std::span<double>(want),
                   [](size_t, double) { return true; });
    for (size_t i = 0; i < live.size(); ++i) {
      double flat = plans[static_cast<size_t>(live[i])]->program.Run(
          sv, params);
      EXPECT_NEAR(got[i], flat, std::abs(flat) * 1e-9) << "patched, i=" << i;
      EXPECT_NEAR(want[i], flat, std::abs(flat) * 1e-9) << "fresh, i=" << i;
    }
  }
}

TEST_F(RecostBundleTest, RemoveIsTolerantAndClearResets) {
  auto plans = MakePlans(3);
  RecostBundle bundle;
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  bundle.Remove(42);  // never added: no-op
  EXPECT_EQ(bundle.num_plans(), 1);
  bundle.Clear();
  EXPECT_EQ(bundle.num_plans(), 0);
  EXPECT_FALSE(bundle.Contains(0));
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  EXPECT_EQ(bundle.num_plans(), 1);
}

TEST_F(RecostBundleTest, MemoryBytesGrowsWithContent) {
  auto plans = MakePlans(5);
  RecostBundle bundle;
  EXPECT_EQ(bundle.memory_bytes(), 0);
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  int64_t one = bundle.memory_bytes();
  EXPECT_GT(one, 0);
  for (size_t i = 1; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
  }
  EXPECT_GE(bundle.memory_bytes(), one);
}

TEST_F(RecostBundleTest, SameTemplatePlansPackOntoFastPaths) {
  // Plans of one template bind the same sVector slots, so pack-time
  // classification must keep every cell off the general per-lane loop,
  // and a multi-block group of identical bindings must hoist its uniform
  // steps to the step-shared product (the binding-clustered placement
  // guarantee the kernel's fast paths rely on).
  auto tmpl = testing::MakeJoinTemplate();
  optimizer_ = std::make_unique<Optimizer>(&db_);
  std::vector<std::unique_ptr<CachedPlan>> plans;
  RecostBundle bundle;
  // Six copies of one operating point: one shape, identical bindings,
  // spilling past a single 4-lane block.
  QueryInstance q = InstanceForSelectivities(db_, *tmpl, {0.2, 0.3});
  for (int i = 0; i < 6; ++i) {
    OptimizationResult r = optimizer_->Optimize(q);
    plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
    ASSERT_TRUE(bundle.Add(i, &plans.back()->program));
  }
  RecostBundle::PackStats st = bundle.pack_stats();
  EXPECT_EQ(st.cells_general, 0);
  EXPECT_GT(st.steps_total, 0);
  // Every step whose cells are uniform on one slot list must carry the
  // hoist; the join template's leaves bind slots, so at least one does.
  EXPECT_GT(st.steps_shared, 0);
}

// ---------------------------------------------------------------------------
// Deep programs and shape-diverse pools: programs longer than the kernels'
// kMaxBundleSteps stack, and more distinct shapes than EvalMany's stack
// scratch covers (the ScratchArena branch). Every plan below is alone in
// its group, so every cost it gets is that plan's own scalar Run: the
// checks are bitwise.
// ---------------------------------------------------------------------------

PlanPtr LeafNode(PhysicalOpKind kind, double base_rows, int slot) {
  auto leaf = std::make_shared<PhysicalPlanNode>();
  leaf->kind = kind;
  leaf->leaf.table_index = 0;
  leaf->leaf.table = "t";
  leaf->leaf.base_rows = base_rows;
  PredSpec param;
  param.column = "c";
  param.param_slot = slot;
  PredSpec literal;
  literal.column = "d";
  literal.literal_sel = 0.5;
  leaf->leaf.preds = {param, literal};
  return leaf;
}

PlanPtr Unary(PhysicalOpKind kind, PlanPtr child) {
  auto n = std::make_shared<PhysicalPlanNode>();
  n->kind = kind;
  n->sort_key = SortKey{0, "c"};
  n->agg.group_distinct = 50.0;
  n->children = {std::move(child)};
  return n;
}

std::unique_ptr<CachedPlan> Cached(PlanPtr root, uint64_t signature) {
  auto c = std::make_unique<CachedPlan>();
  c->program = RecostProgram::Compile(*root);
  c->plan = std::move(root);
  c->signature = signature;
  return c;
}

/// `sorts` Sorts over a leaf binding `slot`, optionally under a
/// HashAggregate: sorts + 1 (+ 1) program steps.
std::unique_ptr<CachedPlan> SortChain(int sorts, PhysicalOpKind leaf_kind,
                                      bool agg, double base_rows, int slot,
                                      uint64_t signature) {
  PlanPtr node = LeafNode(leaf_kind, base_rows, slot);
  for (int i = 0; i < sorts; ++i) node = Unary(PhysicalOpKind::kSort, node);
  if (agg) node = Unary(PhysicalOpKind::kHashAggregate, node);
  return Cached(std::move(node), signature);
}

/// Right-deep hash-join chain over `leaves` scans: 2 * leaves - 1 steps,
/// and every leaf is pushed before the first join pops, so the value
/// stack grows `leaves` deep.
std::unique_ptr<CachedPlan> JoinChain(int leaves, double base_rows,
                                      uint64_t signature) {
  PlanPtr node = LeafNode(PhysicalOpKind::kTableScan, base_rows, 0);
  for (int i = 1; i < leaves; ++i) {
    auto join = std::make_shared<PhysicalPlanNode>();
    join->kind = PhysicalOpKind::kHashJoin;
    join->join.join_sel = 0.004;
    join->children = {LeafNode(PhysicalOpKind::kTableScan,
                               base_rows + 10.0 * i, i % 2),
                      node};
    node = join;
  }
  return Cached(std::move(node), signature);
}

std::vector<SVector> SweepVectors() {
  Pcg32 rng(91);
  std::vector<SVector> svs;
  for (int k = 0; k < 6; ++k) {
    svs.push_back(
        {rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)});
  }
  return svs;
}

TEST_F(RecostBundleTest, ShapeDiversePoolMatchesRunAndTree) {
  // 80 distinct shapes: more groups than EvalMany's stack scratch holds.
  std::vector<std::unique_ptr<CachedPlan>> plans;
  for (int sorts = 0; sorts < 40; ++sorts) {
    for (PhysicalOpKind leaf : {PhysicalOpKind::kTableScan,
                                PhysicalOpKind::kIndexScanOrdered}) {
      plans.push_back(SortChain(sorts, leaf, false, 2000.0 + 37.0 * sorts,
                                sorts % 2, plans.size()));
    }
  }
  const CostModel model;
  const CostParams& params = model.params();
  RecostBundle bundle;
  std::vector<int> ids;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
    ids.push_back(static_cast<int>(i));
  }
  // Request order differs from group order.
  std::reverse(ids.begin(), ids.end());
  for (const SVector& sv : SweepVectors()) {
    std::vector<double> costs(ids.size(), -1.0);
    size_t visited =
        bundle.EvalMany(std::span<const int>(ids), sv, params,
                        std::span<double>(costs),
                        [](size_t, double) { return true; });
    ASSERT_EQ(visited, ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const CachedPlan& p = *plans[static_cast<size_t>(ids[i])];
      EXPECT_EQ(costs[i], p.program.Run(sv, params)) << "id " << ids[i];
      const double tree = model.RecostTree(*p.plan, sv);
      EXPECT_NEAR(costs[i], tree, std::abs(tree) * 1e-9) << "id " << ids[i];
    }
    for (size_t stop_at : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                           ids.size() - 1}) {
      size_t seen = 0;
      visited = bundle.EvalMany(std::span<const int>(ids), sv, params,
                                std::span<double>(costs),
                                [&](size_t idx, double) {
                                  ++seen;
                                  return idx != stop_at;
                                });
      EXPECT_EQ(visited, stop_at + 1);
      EXPECT_EQ(seen, stop_at + 1);
    }
  }
}

TEST_F(RecostBundleTest, DeepProgramsRunScalarInOwnGroups) {
  // Same-shape pairs deeper than kMaxBundleSteps (the join pair also needs
  // a 70-deep value stack) beside a shallow pair that does share a group.
  std::vector<std::unique_ptr<CachedPlan>> plans;
  plans.push_back(
      SortChain(70, PhysicalOpKind::kTableScan, false, 5000.0, 0, 0));
  plans.push_back(
      SortChain(70, PhysicalOpKind::kTableScan, false, 20000.0, 1, 1));
  plans.push_back(JoinChain(70, 1000.0, 2));
  plans.push_back(JoinChain(70, 700.0, 3));
  plans.push_back(SortChain(3, PhysicalOpKind::kTableScan, true, 800.0, 1, 4));
  plans.push_back(SortChain(3, PhysicalOpKind::kTableScan, true, 900.0, 0, 5));
  const size_t num_deep = 4;
  const CostModel model;
  const CostParams& params = model.params();

  RecostBundle shallow_only;
  RecostBundle bundle;
  std::vector<int> ids;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
    if (i >= num_deep) {
      ASSERT_TRUE(shallow_only.Add(static_cast<int>(i), &plans[i]->program));
    }
    ids.push_back(static_cast<int>(i));
  }
  EXPECT_EQ(bundle.num_plans(), static_cast<int>(plans.size()));
  // Nothing of a deep program is packed: every packed step belongs to the
  // shallow pair's group.
  EXPECT_EQ(bundle.pack_stats().steps_total,
            shallow_only.pack_stats().steps_total);

  auto check = [&](const std::vector<int>& want_ids, const SVector& sv) {
    std::vector<double> costs(want_ids.size(), -1.0);
    size_t visited = bundle.EvalMany(std::span<const int>(want_ids), sv,
                                     params, std::span<double>(costs),
                                     [](size_t, double) { return true; });
    ASSERT_EQ(visited, want_ids.size());
    for (size_t i = 0; i < want_ids.size(); ++i) {
      const size_t id = static_cast<size_t>(want_ids[i]);
      const double run = plans[id]->program.Run(sv, params);
      if (id < num_deep) {
        EXPECT_EQ(costs[i], run) << "id " << id;
      } else {
        EXPECT_NEAR(costs[i], run, std::abs(run) * 1e-9) << "id " << id;
      }
      const double tree = model.RecostTree(*plans[id]->plan, sv);
      EXPECT_NEAR(costs[i], tree, std::abs(tree) * 1e-9) << "id " << id;
    }
  };
  for (const SVector& sv : SweepVectors()) {
    check(ids, sv);
    for (size_t stop_at = 0; stop_at < ids.size(); ++stop_at) {
      std::vector<double> costs(ids.size());
      size_t seen = 0;
      size_t visited = bundle.EvalMany(std::span<const int>(ids), sv, params,
                                       std::span<double>(costs),
                                       [&](size_t idx, double) {
                                         ++seen;
                                         return idx != stop_at;
                                       });
      EXPECT_EQ(visited, stop_at + 1);
      EXPECT_EQ(seen, stop_at + 1);
    }
  }

  // Evicting through the tombstone compaction rebuilds the deep survivor
  // into a one-lane group again.
  for (int id : {0, 2, 4, 1}) bundle.Remove(id);
  EXPECT_GE(bundle.rebuilds(), 1) << "compaction should have triggered";
  EXPECT_EQ(bundle.num_plans(), 2);
  EXPECT_EQ(bundle.pack_stats().steps_total,
            plans[5]->program.num_nodes());
  for (const SVector& sv : SweepVectors()) check({3, 5}, sv);
}

TEST_F(RecostBundleTest, DeepPlansSweepLikePerPlanRun) {
  optimizer_ = std::make_unique<Optimizer>(&db_);
  EngineContext engine(&db_, optimizer_.get());
  const CostModel& model = optimizer_->cost_model();
  const CostParams& params = model.params();
  // Plan id i is plans[i]: the store hands out ids in insertion order.
  // Deep plans come in same-shape pairs (a pair that shared a group would
  // reach a kernel); the join pair also needs a 70-deep value stack.
  std::vector<std::unique_ptr<CachedPlan>> plans;
  plans.push_back(
      SortChain(70, PhysicalOpKind::kTableScan, false, 5000.0, 0, 1));
  plans.push_back(SortChain(3, PhysicalOpKind::kTableScan, true, 800.0, 1, 2));
  plans.push_back(
      SortChain(70, PhysicalOpKind::kTableScan, false, 20000.0, 1, 3));
  plans.push_back(JoinChain(70, 1000.0, 4));
  plans.push_back(
      SortChain(90, PhysicalOpKind::kIndexScanOrdered, true, 9000.0, 0, 5));
  plans.push_back(JoinChain(70, 700.0, 6));
  for (const auto& p : plans) {
    if (p->signature != 2) {
      ASSERT_GT(p->program.num_nodes(), 64);
    }
  }
  const auto candidate =
      SortChain(5, PhysicalOpKind::kTableScan, false, 3000.0, 0, 100);
  const double lambda_r = 2.0;

  for (const SVector& sv : SweepVectors()) {
    std::vector<double> run;
    for (const auto& p : plans) {
      run.push_back(p->program.Run(sv, params));
      const double tree = model.RecostTree(*p->plan, sv);
      EXPECT_NEAR(run.back(), tree, std::abs(tree) * 1e-9);
    }
    // opt_cost = run[k] / lambda_r stops the sweep at the first plan
    // within lambda_r; the tiny opt_cost scans everything and stores the
    // candidate.
    std::vector<double> opt_costs;
    for (double c : run) opt_costs.push_back(c / lambda_r);
    opt_costs.push_back(*std::min_element(run.begin(), run.end()) * 1e-3);
    for (double opt_cost : opt_costs) {
      PlanStore store;
      for (const auto& p : plans) {
        store.StoreOrReuse(*p, sv, 1.0, -1.0, &engine);
      }
      ASSERT_EQ(store.NumLive(), static_cast<int64_t>(plans.size()));
      // Mirror of StoreOrReuse's sweep over per-plan Run costs.
      double min_cost = std::numeric_limits<double>::infinity();
      size_t min_pos = 0;
      int64_t visited = 0;
      for (size_t i = 0; i < run.size(); ++i) {
        ++visited;
        if (run[i] < min_cost) {
          min_cost = run[i];
          min_pos = i;
        }
        if (min_cost <= lambda_r * opt_cost) break;
      }
      const int64_t before = engine.num_recost_calls();
      PlanStore::StoreResult r =
          store.StoreOrReuse(*candidate, sv, opt_cost, lambda_r, &engine);
      EXPECT_EQ(engine.num_recost_calls() - before, visited);
      const double s_min = min_cost / opt_cost;
      if (s_min <= lambda_r) {
        EXPECT_TRUE(r.reused_existing);
        EXPECT_EQ(r.plan_id, static_cast<int>(min_pos));
        EXPECT_EQ(r.subopt, s_min);
      } else {
        EXPECT_FALSE(r.reused_existing);
        EXPECT_EQ(r.plan_id, static_cast<int>(plans.size()));
        EXPECT_EQ(r.subopt, 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ComputeGlFast: the 4-lane unrolled selectivity check must agree with the
// scalar ComputeGl to 1e-9 relative (the lanes only reorder multiplies).
// ---------------------------------------------------------------------------

TEST(ComputeGlFastTest, MatchesScalarComputeGl) {
  Pcg32 rng(1234);
  for (int dims = 1; dims <= 19; ++dims) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<double> from(static_cast<size_t>(dims));
      std::vector<double> to(static_cast<size_t>(dims));
      for (int i = 0; i < dims; ++i) {
        // Includes sub-floor values so the kSelectivityFloor clamp path is
        // exercised on both sides.
        from[static_cast<size_t>(i)] =
            rng.UniformDouble() < 0.1 ? 1e-12 : rng.UniformDouble(1e-6, 1.0);
        to[static_cast<size_t>(i)] =
            rng.UniformDouble() < 0.1 ? 0.0 : rng.UniformDouble(1e-6, 1.0);
      }
      GlFactors slow = ComputeGl(from, to);
      GlFactors fast = ComputeGlFast(from, to);
      EXPECT_NEAR(fast.g, slow.g, slow.g * 1e-9) << "dims=" << dims;
      EXPECT_NEAR(fast.l, slow.l, slow.l * 1e-9) << "dims=" << dims;
    }
  }
}

// ---------------------------------------------------------------------------
// Warmed getPlan reuse path performs zero heap allocations: the arena
// watermark stays flat AND the global operator-new counter stays flat
// across a window of reuse hits.
// ---------------------------------------------------------------------------

TEST(ScrZeroAllocTest, WarmedReusePathAllocatesNothing) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);
  EngineContext engine(&db, &optimizer);
  ScrOptions opts;
  opts.lambda = 3.0;
  opts.use_spatial_index = true;
  Scr scr(opts);

  auto make_wi = [&](int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db, *tmpl, {s0, s1});
    wi.svector = ComputeSelectivityVector(db, wi.instance);
    return wi;
  };

  // Warm-up traffic: populate the cache, the kd-tree, and the bundle.
  Pcg32 rng(9);
  for (int i = 0; i < 60; ++i) {
    scr.OnInstance(make_wi(i, rng.UniformDouble(0.01, 0.95),
                           rng.UniformDouble(0.01, 0.95)),
                   &engine);
  }

  // Probes that resolve on the reuse path (hit or miss both stay inside
  // TryReuse — no optimizer call happens there). One priming pass grows
  // the arena to this workload's high-water mark.
  std::vector<WorkloadInstance> probes;
  Pcg32 prng(21);
  for (int i = 0; i < 16; ++i) {
    probes.push_back(make_wi(1000 + i, prng.UniformDouble(0.05, 0.9),
                             prng.UniformDouble(0.05, 0.9)));
  }
  int hits = 0;
  for (const auto& wi : probes) {
    PlanChoice choice;
    if (scr.TryReuse(wi, &engine, &choice)) ++hits;
  }
  ASSERT_GT(hits, 0) << "warm-up produced no reusable coverage";

  // Measured window: watermark and allocation count must not move.
  int64_t watermark_before = ScratchArena::Tls().watermark();
  int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& wi : probes) {
      PlanChoice choice;
      (void)scr.TryReuse(wi, &engine, &choice);
    }
  }
  int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  int64_t watermark_after = ScratchArena::Tls().watermark();
  EXPECT_EQ(watermark_after, watermark_before)
      << "warmed reuse path grew the scratch arena";
  EXPECT_EQ(allocs_after, allocs_before)
      << "warmed reuse path hit the heap";

  // The whole warm request after binding: the template's compiled sVector
  // program evaluates into arena scratch, the result is copied into the
  // request's (already sized) sVector, and TryReuse runs on it. One priming
  // pass compiles the program and grows the arena.
  const SelectivityProgram& program = tmpl->CompiledSelectivity(db.catalog());
  const size_t dims = static_cast<size_t>(program.dimensions());
  std::vector<WorkloadInstance> requests = probes;
  for (WorkloadInstance& wi : requests) {
    std::fill(wi.svector.begin(), wi.svector.end(), 0.0);
  }
  auto serve = [&] {
    for (WorkloadInstance& wi : requests) {
      ScratchArena& arena = ScratchArena::Tls();
      ScratchArena::Scope scope(arena);
      std::span<double> sv(arena.AllocateArray<double>(dims), dims);
      program.Evaluate(wi.instance, sv);
      std::copy(sv.begin(), sv.end(), wi.svector.begin());
      PlanChoice choice;
      (void)scr.TryReuse(wi, &engine, &choice);
    }
  };
  serve();
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(requests[i].svector, probes[i].svector);
  }
  watermark_before = ScratchArena::Tls().watermark();
  allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 20; ++rep) serve();
  allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  watermark_after = ScratchArena::Tls().watermark();
  EXPECT_EQ(watermark_after, watermark_before)
      << "warmed sVector + reuse path grew the scratch arena";
  EXPECT_EQ(allocs_after, allocs_before)
      << "warmed sVector + reuse path hit the heap";
}

// ---------------------------------------------------------------------------
// Concurrency: EvalMany readers race a mutating writer under the
// PlanStore locking discipline (shared readers, exclusive rebuilds). Run
// under TSan by the concurrency CI job.
// ---------------------------------------------------------------------------

TEST(RecostBundleConcurrencyTest, RebuildRacesReaders) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);
  const CostParams& params = optimizer.cost_model().params();
  Pcg32 rng(31);
  std::vector<std::unique_ptr<CachedPlan>> plans;
  for (int i = 0; i < 8; ++i) {
    QueryInstance q = InstanceForSelectivities(
        db, *tmpl,
        {rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)});
    plans.push_back(
        std::make_unique<CachedPlan>(MakeCachedPlan(optimizer.Optimize(q))));
  }

  SharedMutex mu;
  RecostBundle bundle;
  std::vector<int> live_ids;
  {
    WriterMutexLock lock(mu);
    for (size_t i = 0; i < plans.size(); ++i) {
      ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
      live_ids.push_back(static_cast<int>(i));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> reads{0};

  auto reader = [&](uint64_t seed) {
    Pcg32 r(seed);
    while (!stop.load(std::memory_order_acquire)) {
      SVector sv{r.UniformDouble(0.001, 1.0), r.UniformDouble(0.001, 1.0)};
      ReaderMutexLock lock(mu);
      if (live_ids.empty()) continue;
      std::vector<double> costs(live_ids.size());
      bundle.EvalMany(std::span<const int>(live_ids), sv, params,
                      std::span<double>(costs),
                      [](size_t, double) { return true; });
      for (size_t i = 0; i < live_ids.size(); ++i) {
        double flat = plans[static_cast<size_t>(live_ids[i])]->program.Run(
            sv, params);
        if (std::abs(costs[i] - flat) > std::abs(flat) * 1e-9) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::thread r1(reader, 101), r2(reader, 202);
  // Writer: evict/re-admit cycles that repeatedly trip the tombstone
  // compaction (a full dense rebuild) while the readers are in flight.
  for (int cycle = 0; cycle < 300; ++cycle) {
    // Outside the lock, let a reader finish a pass over the state the
    // previous cycle left before mutating it again: under load both
    // readers could otherwise miss the whole loop.
    const int64_t seen = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) == seen) {
      std::this_thread::yield();
    }
    WriterMutexLock lock(mu);
    if (live_ids.size() > 2) {
      for (int k = 0; k < 3 && live_ids.size() > 2; ++k) {
        int victim = live_ids[static_cast<size_t>(cycle + k) %
                              live_ids.size()];
        bundle.Remove(victim);
        live_ids.erase(
            std::find(live_ids.begin(), live_ids.end(), victim));
      }
    } else {
      for (size_t i = 0; i < plans.size(); ++i) {
        int id = static_cast<int>(i);
        if (!bundle.Contains(id)) {
          ASSERT_TRUE(bundle.Add(id, &plans[i]->program));
          live_ids.push_back(id);
        }
      }
    }
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(bundle.rebuilds(), 1);
}

}  // namespace
}  // namespace scrpqo
