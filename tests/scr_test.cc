#include <gtest/gtest.h>

#include <memory>

#include "obs/trace.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/runner.h"

namespace scrpqo {
namespace {

class ScrTest : public ::testing::Test {
 protected:
  ScrTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {}

  WorkloadInstance MakeWi(int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *tmpl_, {s0, s1});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  /// A mixed stream of instances covering the selectivity space.
  std::vector<WorkloadInstance> MakeStream(int m, uint64_t seed = 3) {
    Pcg32 rng(seed);
    std::vector<WorkloadInstance> out;
    for (int i = 0; i < m; ++i) {
      double s0 = rng.UniformDouble() < 0.5
                      ? rng.UniformDouble(0.001, 0.05)
                      : rng.UniformDouble(0.15, 0.95);
      double s1 = rng.UniformDouble() < 0.5
                      ? rng.UniformDouble(0.001, 0.05)
                      : rng.UniformDouble(0.15, 0.95);
      out.push_back(MakeWi(i, s0, s1));
    }
    return out;
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(ScrTest, FirstInstanceAlwaysOptimizes) {
  Scr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  PlanChoice c = scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
  EXPECT_TRUE(c.optimized);
  EXPECT_EQ(scr.NumPlansCached(), 1);
  EXPECT_EQ(engine.num_optimizer_calls(), 1);
}

TEST_F(ScrTest, IdenticalInstancePassesSelectivityCheck) {
  Scr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
  PlanChoice c = scr.OnInstance(MakeWi(1, 0.3, 0.3), &engine);
  EXPECT_FALSE(c.optimized);
  EXPECT_EQ(c.recost_calls_in_get_plan, 0);  // pure selectivity check
  EXPECT_EQ(engine.num_optimizer_calls(), 1);
}

TEST_F(ScrTest, NearbyInstancePassesSelectivityCheck) {
  // GL = 1.1 * 1.1 = 1.21 <= lambda = 2 => no engine call at all.
  Scr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  scr.OnInstance(MakeWi(0, 0.30, 0.30), &engine);
  PlanChoice c = scr.OnInstance(MakeWi(1, 0.33, 0.27), &engine);
  EXPECT_FALSE(c.optimized);
  EXPECT_EQ(c.recost_calls_in_get_plan, 0);
  EXPECT_EQ(engine.num_recost_calls(), 0);
}

TEST_F(ScrTest, EvictedPlanIsFreedOnceCallersLetGo) {
  // Budget 1: the second distinct plan evicts the first.
  ScrOptions opts;
  opts.lambda = 1.1;
  opts.lambda_r = 1.0;  // store every new plan
  opts.plan_budget = 1;
  Scr scr(opts);
  EngineContext engine(&db_, &optimizer_);
  PlanChoice first = scr.OnInstance(MakeWi(0, 0.001, 0.001), &engine);
  std::weak_ptr<const CachedPlan> watch = first.plan;
  const uint64_t first_signature = first.plan->signature;
  PlanChoice second = scr.OnInstance(MakeWi(1, 0.95, 0.95), &engine);
  if (second.plan->signature == first_signature) {
    GTEST_SKIP() << "need two distinct plans";
  }
  EXPECT_EQ(scr.NumPlansCached(), 1);
  EXPECT_EQ(scr.NumInstancesStored(), 1);
  EXPECT_FALSE(watch.expired());  // the first caller still holds it
  first.plan.reset();
  EXPECT_TRUE(watch.expired());
}

TEST_F(ScrTest, FarInstanceTriggersCostCheckOrOptimize) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  scr.OnInstance(MakeWi(0, 0.05, 0.05), &engine);
  // GL way beyond lambda: selectivity check must fail.
  PlanChoice c = scr.OnInstance(MakeWi(1, 0.9, 0.9), &engine);
  EXPECT_TRUE(c.optimized || c.recost_calls_in_get_plan > 0);
}

TEST_F(ScrTest, GuaranteeHoldsUnlessViolationDetected) {
  // Core property (Theorem 1): every reused plan is lambda-optimal at the
  // instance it is reused for, whenever BCG holds. We verify SO <= lambda
  // across a long stream, tolerating only instances where the cost model
  // genuinely violates BCG (tracked separately below).
  const double lambda = 2.0;
  Scr scr(ScrOptions{.lambda = lambda});
  EngineContext engine(&db_, &optimizer_);
  auto stream = MakeStream(300);
  int checked = 0, violations = 0;
  for (const auto& wi : stream) {
    PlanChoice c = scr.OnInstance(wi, &engine);
    OptimizationResult opt =
        optimizer_.OptimizeWithSVector(wi.instance, wi.svector);
    double so =
        engine.RecostUncharged(*c.plan, wi.svector) / opt.cost;
    ++checked;
    if (so > lambda * 1.001) ++violations;
  }
  EXPECT_EQ(checked, 300);
  // Violations must be rare (paper Section 7.2 observes the same).
  EXPECT_LE(violations, 6) << "too many bound violations";
}

TEST_F(ScrTest, TighterLambdaMeansMoreOptimizerCalls) {
  auto run = [&](double lambda) {
    Scr scr(ScrOptions{.lambda = lambda});
    EngineContext engine(&db_, &optimizer_);
    for (const auto& wi : MakeStream(200)) scr.OnInstance(wi, &engine);
    return engine.num_optimizer_calls();
  };
  int64_t tight = run(1.1);
  int64_t loose = run(2.0);
  EXPECT_GT(tight, loose);
}

TEST_F(ScrTest, RedundancyCheckLimitsPlans) {
  // lambda_r = sqrt(lambda) (default) stores far fewer plans than
  // lambda_r = 1 (store everything) at equal lambda.
  auto run = [&](double lambda_r) {
    Scr scr(ScrOptions{.lambda = 2.0, .lambda_r = lambda_r});
    EngineContext engine(&db_, &optimizer_);
    for (const auto& wi : MakeStream(300)) scr.OnInstance(wi, &engine);
    return scr.PeakPlansCached();
  };
  int64_t store_all = run(1.0);
  int64_t with_check = run(-1.0);  // default sqrt(lambda)
  EXPECT_LE(with_check, store_all);
}

TEST_F(ScrTest, PlanBudgetEnforced) {
  Scr scr(ScrOptions{.lambda = 1.1, .plan_budget = 3});
  EngineContext engine(&db_, &optimizer_);
  for (const auto& wi : MakeStream(300)) scr.OnInstance(wi, &engine);
  EXPECT_LE(scr.NumPlansCached(), 3);
  EXPECT_LE(scr.PeakPlansCached(), 4);  // transiently k+1 before eviction
}

TEST_F(ScrTest, BudgetEvictionNeverEvictsTheJustStoredPlan) {
  // Regression: EvictForBudget runs before the fresh plan's usage count is
  // credited, so with budget 1 the freshest plan is the LFU victim — an
  // unpinned evictor would drop the plan just chosen for the in-flight
  // instance, leaving its instance entry dangling on a dead plan.
  Scr scr(ScrOptions{.lambda = 1.05, .plan_budget = 1});
  EngineContext engine(&db_, &optimizer_);

  // Make the first plan clearly more-used than any newcomer.
  PlanChoice first = scr.OnInstance(MakeWi(0, 0.01, 0.01), &engine);
  for (int i = 1; i <= 3; ++i) {
    (void)scr.OnInstance(MakeWi(i, 0.01, 0.01), &engine);
  }

  // A far-away instance needs a different plan; storing it overflows the
  // budget while its usage is still 0.
  PlanChoice fresh = scr.OnInstance(MakeWi(10, 0.9, 0.9), &engine);
  ASSERT_TRUE(fresh.optimized);
  ASSERT_NE(fresh.plan->signature, first.plan->signature)
      << "test needs two distinct plans to exercise eviction";

  // The budget held, and the survivor is the freshly stored plan, not the
  // well-used one.
  EXPECT_LE(scr.NumPlansCached(), 1);
  std::vector<PlanPtr> live = scr.SnapshotPlans();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(PlanSignatureHash(*live[0]), fresh.plan->signature);

  // And its instance entry is alive: an identical repeat reuses the cache.
  PlanChoice repeat = scr.OnInstance(MakeWi(11, 0.9, 0.9), &engine);
  EXPECT_FALSE(repeat.optimized);
  EXPECT_EQ(repeat.plan->signature, fresh.plan->signature);
}

TEST_F(ScrTest, EvictLfuPlanHonorsSignaturePin) {
  Scr scr(ScrOptions{.lambda = 1.05});
  EngineContext engine(&db_, &optimizer_);
  PlanChoice a = scr.OnInstance(MakeWi(0, 0.01, 0.01), &engine);
  PlanChoice b = scr.OnInstance(MakeWi(1, 0.9, 0.9), &engine);
  ASSERT_NE(a.plan->signature, b.plan->signature);
  ASSERT_EQ(scr.NumPlansCached(), 2);
  // A reuse bumps a's usage above b's, making b the strict LFU victim.
  (void)scr.OnInstance(MakeWi(2, 0.01, 0.01), &engine);

  // Pinning the victim diverts eviction to the better-used plan.
  EXPECT_TRUE(scr.EvictLfuPlan(/*instance_id=*/99, b.plan->signature));
  std::vector<PlanPtr> live = scr.SnapshotPlans();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(PlanSignatureHash(*live[0]), b.plan->signature);

  // With the only plan pinned, nothing is evictable.
  EXPECT_EQ(scr.MinLivePlanUsage(b.plan->signature), -1);
  EXPECT_FALSE(scr.EvictLfuPlan(/*instance_id=*/99, b.plan->signature));
  EXPECT_EQ(scr.NumPlansCached(), 1);
}

TEST_F(ScrTest, EstimatedMemoryBytesTracksCacheGrowth) {
  // lambda = 1.05 forces the far instance to optimize and store (a looser
  // bound would serve it via the cost check, adding nothing to the cache).
  Scr scr(ScrOptions{.lambda = 1.05});
  EngineContext engine(&db_, &optimizer_);
  EXPECT_EQ(scr.EstimatedMemoryBytes(), 0);
  PlanChoice a = scr.OnInstance(MakeWi(0, 0.01, 0.01), &engine);
  int64_t one = scr.EstimatedMemoryBytes();
  EXPECT_GT(one, 0);
  PlanChoice b = scr.OnInstance(MakeWi(1, 0.9, 0.9), &engine);
  ASSERT_TRUE(b.optimized);
  ASSERT_NE(a.plan->signature, b.plan->signature);
  EXPECT_GT(scr.EstimatedMemoryBytes(), one);
}

TEST_F(ScrTest, BudgetKeepsGuarantee) {
  const double lambda = 2.0;
  Scr scr(ScrOptions{.lambda = lambda, .plan_budget = 2});
  EngineContext engine(&db_, &optimizer_);
  int violations = 0;
  for (const auto& wi : MakeStream(200)) {
    PlanChoice c = scr.OnInstance(wi, &engine);
    OptimizationResult opt =
        optimizer_.OptimizeWithSVector(wi.instance, wi.svector);
    if (engine.RecostUncharged(*c.plan, wi.svector) / opt.cost >
        lambda * 1.001) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 4);
}

TEST_F(ScrTest, MaxCostCheckCandidatesCapsRecosts) {
  Scr scr(ScrOptions{.lambda = 1.05, .max_cost_check_candidates = 3});
  EngineContext engine(&db_, &optimizer_);
  for (const auto& wi : MakeStream(300)) scr.OnInstance(wi, &engine);
  EXPECT_LE(scr.max_recost_calls_per_get_plan(), 3);
}

TEST_F(ScrTest, DynamicLambdaReducesOptimizerCalls) {
  auto run = [&](bool dynamic) {
    ScrOptions o;
    o.lambda = 1.1;
    o.dynamic_lambda = dynamic;
    o.lambda_min = 1.1;
    o.lambda_max = 10.0;
    Scr scr(o);
    EngineContext engine(&db_, &optimizer_);
    for (const auto& wi : MakeStream(300)) scr.OnInstance(wi, &engine);
    return engine.num_optimizer_calls();
  };
  // Appendix D: looser bounds for cheap instances save optimizer calls.
  EXPECT_LE(run(true), run(false));
}

TEST_F(ScrTest, InstanceListTracksOptimizedOnly) {
  Scr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  auto stream = MakeStream(100);
  int optimized = 0;
  for (const auto& wi : stream) {
    if (scr.OnInstance(wi, &engine).optimized) ++optimized;
  }
  EXPECT_EQ(scr.NumInstancesStored(), optimized);
  EXPECT_LT(optimized, 100);
}

TEST_F(ScrTest, DropRedundantPlansKeepsGuarantee) {
  const double lambda = 2.0;
  Scr scr(ScrOptions{.lambda = lambda, .lambda_r = 1.0});  // store all
  EngineContext engine(&db_, &optimizer_);
  auto stream = MakeStream(200);
  for (const auto& wi : stream) scr.OnInstance(wi, &engine);
  int64_t before = scr.NumPlansCached();
  int dropped = scr.DropRedundantPlans(&engine);
  EXPECT_EQ(scr.NumPlansCached(), before - dropped);
  // Replaying the stream must still meet the bound (modulo rare BCG noise).
  int violations = 0;
  for (const auto& wi : stream) {
    PlanChoice c = scr.OnInstance(wi, &engine);
    OptimizationResult opt =
        optimizer_.OptimizeWithSVector(wi.instance, wi.svector);
    if (engine.RecostUncharged(*c.plan, wi.svector) / opt.cost >
        lambda * 1.001) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 4);
}

TEST_F(ScrTest, NameReflectsConfiguration) {
  EXPECT_EQ(Scr(ScrOptions{.lambda = 2.0}).name(), "SCR2");
  EXPECT_EQ(Scr(ScrOptions{.lambda = 1.1}).name(), "SCR1.1");
  Scr budget(ScrOptions{.lambda = 2.0, .plan_budget = 5});
  EXPECT_EQ(budget.name(), "SCR2(k=5)");
}

TEST_F(ScrTest, TracedTechniqueSpellingsAreStable) {
  // The name is built once at construction; every traced decision must
  // still carry the exact JSONL `technique` spellings trace consumers
  // (guarantee_audit, trace_summarize) have always seen.
  struct Case {
    ScrOptions options;
    const char* technique;
  };
  const Case cases[] = {
      {ScrOptions{.lambda = 2.0}, "SCR2"},
      {ScrOptions{.lambda = 2.0, .plan_budget = 3}, "SCR2(k=3)"},
      {ScrOptions{.lambda = 1.5, .dynamic_lambda = true}, "SCR1.5(dyn)"},
      {ScrOptions{.lambda = 2.0, .plan_budget = 4, .dynamic_lambda = true},
       "SCR2(k=4)(dyn)"},
  };
  for (const Case& c : cases) {
    Scr scr(c.options);
    EXPECT_EQ(scr.name(), c.technique);
    Tracer tracer(16);
    scr.SetObs(ObsHooks{&tracer, nullptr});
    EngineContext engine(&db_, &optimizer_);
    (void)scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
    (void)scr.OnInstance(MakeWi(1, 0.3, 0.3), &engine);
    const std::vector<DecisionEvent> events = tracer.Snapshot();
    ASSERT_EQ(events.size(), 2u) << c.technique;
    for (const DecisionEvent& ev : events) {
      EXPECT_EQ(ev.technique, c.technique);
      EXPECT_NE(DecisionEventToJsonl(ev).find(
                    std::string("\"technique\":\"") + c.technique + "\""),
                std::string::npos)
          << DecisionEventToJsonl(ev);
    }
  }
}

/// Lambda sweep property: the guarantee machinery works at every bound.
class ScrLambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScrLambdaSweep, BoundRespected) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);
  double lambda = GetParam();
  Scr scr(ScrOptions{.lambda = lambda});
  EngineContext engine(&db, &optimizer);
  Pcg32 rng(11);
  int violations = 0;
  const int m = 150;
  for (int i = 0; i < m; ++i) {
    double s0 = rng.UniformDouble(0.005, 0.95);
    double s1 = rng.UniformDouble(0.005, 0.95);
    WorkloadInstance wi;
    wi.id = i;
    wi.instance = InstanceForSelectivities(db, *tmpl, {s0, s1});
    wi.svector = ComputeSelectivityVector(db, wi.instance);
    PlanChoice c = scr.OnInstance(wi, &engine);
    OptimizationResult opt =
        optimizer.OptimizeWithSVector(wi.instance, wi.svector);
    if (engine.RecostUncharged(*c.plan, wi.svector) / opt.cost >
        lambda * 1.001) {
      ++violations;
    }
  }
  EXPECT_LE(violations, m / 25) << "lambda=" << lambda;
}

INSTANTIATE_TEST_SUITE_P(Lambdas, ScrLambdaSweep,
                         ::testing::Values(1.05, 1.1, 1.3, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace scrpqo
