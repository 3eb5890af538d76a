// Compile-time companion to tools/analyze/scrpqo_effects.py: the analyzer
// PROVES the hot kernels non-throwing over the project call graph, and the
// proof is then encoded in the type system as `noexcept` so callers (and
// std machinery like move-selection) can rely on it. These static_asserts
// pin the specifiers — if someone drops a noexcept, the build breaks here
// before the analyzer even runs. Compiles under both GCC and Clang (the
// two CI toolchains); there is nothing compiler-specific below.
//
// The runtime tests double-check the semantics the specifiers promise:
// a DecisionEvent round-trip through SpscEventRing::TryPush and a
// ComputeGlFast identity, so the annotated functions are also executed,
// not just named, in this TU.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "common/grace_period.h"
#include "common/math_util.h"
#include "obs/event_ring.h"
#include "obs/metrics_registry.h"
#include "optimizer/recost_program.h"
#include "query/query_instance.h"
#include "query/selectivity_program.h"
#include "tests/test_util.h"
#include "workload/multi_template.h"

namespace scrpqo {
namespace {

// ---------------------------------------------------------------------------
// RecostProgram evaluation kernels.
// ---------------------------------------------------------------------------

static_assert(noexcept(std::declval<const RecostProgram&>().Run(
                  std::declval<const SVector&>(),
                  std::declval<const CostParams&>())),
              "RecostProgram::Run must stay noexcept: the effect analyzer "
              "proves it non-throwing (SCRPQO_NOTHROW) and RecostBundle's "
              "scalar groups rely on it");

static_assert(noexcept(RecostStepOp(std::declval<const RecostProgram::Op&>(),
                                    1.0, std::declval<const double*>(),
                                    std::declval<const CostParams&>(),
                                    std::declval<double*>(),
                                    std::declval<double*>(),
                                    std::declval<int&>())),
              "RecostStepOp (the shared per-op dispatch) must stay noexcept");

// ---------------------------------------------------------------------------
// SPSC event ring producer path.
// ---------------------------------------------------------------------------

static_assert(noexcept(std::declval<SpscEventRing&>().TryPush(
                  std::declval<DecisionEvent>())),
              "SpscEventRing::TryPush must stay noexcept: it sits on the "
              "getPlan emit path and must never unwind mid-slot");

// TryPush's noexcept is only honest if moving a DecisionEvent into a slot
// cannot throw; pin that prerequisite too.
static_assert(std::is_nothrow_move_assignable_v<DecisionEvent>,
              "DecisionEvent must stay nothrow-move-assignable — "
              "TryPush's noexcept depends on the slot move");

// ---------------------------------------------------------------------------
// G/L kernel.
// ---------------------------------------------------------------------------

static_assert(noexcept(ComputeGlFast(std::declval<const std::vector<double>&>(),
                                     std::declval<const std::vector<double>&>())),
              "ComputeGlFast must stay noexcept: it runs once per candidate "
              "inside Scr::TryReuse");
static_assert(noexcept(ComputeGlFast(std::declval<const double*>(),
                                     std::declval<const double*>(),
                                     std::declval<size_t>())),
              "the row form of ComputeGlFast must stay noexcept: it runs "
              "once per stored instance inside Scr::TryReuse");

// ---------------------------------------------------------------------------
// sVector program.
// ---------------------------------------------------------------------------

static_assert(noexcept(std::declval<const SelectivityProgram&>().Evaluate(
                  std::declval<const QueryInstance&>(),
                  std::declval<std::span<double>>())),
              "SelectivityProgram::Evaluate must stay noexcept: the effect "
              "analyzer proves it non-throwing and every warm request runs "
              "it before getPlan");

// ---------------------------------------------------------------------------
// PqoManager warm route. PqoManager::FindReadyAsync is the effect root
// (HOT / NOALLOC / NONBLOCKING / LOCK_BOUNDED()); the read section around
// it must not unwind either.
// ---------------------------------------------------------------------------

static_assert(std::is_nothrow_constructible_v<GracePeriod::ReadSection,
                                              GracePeriod&>,
              "entering a GracePeriod read section must stay noexcept: "
              "every warm PqoManager request opens one");
static_assert(std::is_nothrow_destructible_v<GracePeriod::ReadSection>,
              "closing a GracePeriod read section must stay noexcept");

// ---------------------------------------------------------------------------
// Runtime smoke: the noexcept-pinned functions also behave.
// ---------------------------------------------------------------------------

TEST(EffectsContracts, TryPushRoundTripsEvent) {
  SpscEventRing ring(8);
  DecisionEvent ev;
  ev.technique = "reuse";
  ev.instance_id = 42;
  ASSERT_TRUE(ring.TryPush(std::move(ev)));
  std::vector<DecisionEvent> out;
  ASSERT_EQ(ring.DrainInto(&out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_id, 42);
  EXPECT_EQ(out[0].technique, "reuse");
}

TEST(EffectsContracts, ComputeGlFastIdentityIsUnit) {
  const std::vector<double> s{0.1, 0.5, 0.9, 0.25, 0.75};
  const GlFactors gl = ComputeGlFast(s, s);
  EXPECT_DOUBLE_EQ(gl.g, 1.0);
  EXPECT_DOUBLE_EQ(gl.l, 1.0);
}

TEST(EffectsContracts, ComputeGlFastSplitsRatios) {
  // One dimension doubles (goes into G), one halves (goes into L).
  const std::vector<double> from{0.2, 0.4};
  const std::vector<double> to{0.4, 0.2};
  const GlFactors gl = ComputeGlFast(from, to);
  EXPECT_DOUBLE_EQ(gl.g, 2.0);
  EXPECT_DOUBLE_EQ(gl.l, 2.0);
}

TEST(EffectsContracts, ComputeGlFastRowFormIsBitIdentical) {
  // The selectivity check reads rows of a flat stride-d array; the row
  // form must give exactly the vector form's G and L, tail lanes included.
  const std::vector<double> flat{0.3,  0.01, 0.7, 0.2, 0.05, 0.9, 0.4,
                                 0.25, 0.02, 0.6, 0.1, 0.08, 0.5, 0.3};
  const size_t d = 7;
  const std::vector<double> a(flat.begin(), flat.begin() + d);
  const std::vector<double> b(flat.begin() + d, flat.end());
  const GlFactors vec = ComputeGlFast(a, b);
  const GlFactors row = ComputeGlFast(flat.data(), flat.data() + d, d);
  EXPECT_EQ(vec.g, row.g);
  EXPECT_EQ(vec.l, row.l);
}

TEST(EffectsContracts, SelectivityProgramEvaluateFillsSpan) {
  Database db = testing::MakeSmallDatabase(2000, 200);
  auto tmpl = testing::MakeJoinTemplate();
  const QueryInstance q = InstanceForSelectivities(db, *tmpl, {0.25, 0.75});
  double out[2] = {-1.0, -1.0};
  tmpl->CompiledSelectivity(db.catalog()).Evaluate(q, out);
  const SVector sv = ComputeSelectivityVector(db, q);
  EXPECT_EQ(out[0], sv[0]);
  EXPECT_EQ(out[1], sv[1]);
  EXPECT_NEAR(out[0], 0.25, 0.05);
}

TEST(EffectsContracts, WarmAsyncRouteTakesNoShardLock) {
  // Runtime face of the FindReadyAsync root: once a template's AsyncScr is
  // ready, requests for it never acquire a shard lock (every acquisition
  // records into "pqo_manager.shard_lock_wait").
  TemplateFleet fleet(2, 4);
  const ServedTemplate& st = fleet.served()[0];
  PqoManagerOptions opts;
  opts.use_async = true;
  opts.num_shards = 1;
  // Declared before the manager so it outlives the caches' workers.
  MetricsRegistry registry;
  PqoManager mgr(opts);
  mgr.SetObs(ObsHooks{nullptr, &registry});
  auto shard_locks = [&] {
    const RegistrySnapshot snap = registry.Snapshot();
    const HistogramSnapshot* h =
        snap.FindHistogram("pqo_manager.shard_lock_wait");
    return h == nullptr ? int64_t{0} : h->count;
  };

  ASSERT_NE(mgr.OnInstance(st.key, (*st.instances)[0], st.engine).plan,
            nullptr);
  mgr.FlushAll();
  const int64_t cold_locks = shard_locks();
  EXPECT_GT(cold_locks, 0);
  for (int i = 0; i < 64; ++i) {
    const WorkloadInstance& wi =
        (*st.instances)[static_cast<size_t>(i) % st.instances->size()];
    EXPECT_NE(mgr.OnInstance(st.key, wi, st.engine).plan, nullptr);
  }
  EXPECT_EQ(shard_locks(), cold_locks);
}

}  // namespace
}  // namespace scrpqo
