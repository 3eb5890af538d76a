#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/rng.h"
#include "pqo/instance_index.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

double TrueLogGl(const SVector& a, const SVector& b) {
  auto ratios = SelectivityRatios(a, b);
  return std::log(ComputeG(ratios) * ComputeL(ratios));
}

SVector RandomSv(Pcg32* rng, int d) {
  SVector sv(static_cast<size_t>(d));
  for (auto& s : sv) s = rng->UniformDouble(0.001, 0.99);
  return sv;
}

TEST(InstanceKdTreeTest, InsertAndSize) {
  InstanceKdTree tree(2);
  EXPECT_EQ(tree.size(), 0);
  tree.Insert(0, {0.1, 0.2});
  tree.Insert(1, {0.5, 0.6});
  EXPECT_EQ(tree.size(), 2);
}

TEST(InstanceKdTreeTest, RangeQueryMatchesBruteForce) {
  Pcg32 rng(7);
  const int d = 3;
  InstanceKdTree tree(d);
  std::vector<SVector> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back(RandomSv(&rng, d));
    tree.Insert(i, points.back());
  }
  for (int trial = 0; trial < 30; ++trial) {
    SVector q = RandomSv(&rng, d);
    for (double bound : {1.2, 2.0, 5.0}) {
      auto matches = tree.RangeQuery(q, bound);
      std::vector<int64_t> got;
      for (const auto& m : matches) got.push_back(m.id);
      std::sort(got.begin(), got.end());
      std::vector<int64_t> expected;
      for (size_t i = 0; i < points.size(); ++i) {
        if (TrueLogGl(points[i], q) <= std::log(bound) + 1e-12) {
          expected.push_back(static_cast<int64_t>(i));
        }
      }
      EXPECT_EQ(got, expected) << "bound=" << bound;
    }
  }
}

TEST(InstanceKdTreeTest, RangeQueryReportsCorrectDistance) {
  Pcg32 rng(9);
  InstanceKdTree tree(2);
  std::vector<SVector> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back(RandomSv(&rng, 2));
    tree.Insert(i, points.back());
  }
  SVector q = RandomSv(&rng, 2);
  for (const auto& m : tree.RangeQuery(q, 10.0)) {
    EXPECT_NEAR(m.log_gl, TrueLogGl(points[static_cast<size_t>(m.id)], q),
                1e-9);
  }
}

TEST(InstanceKdTreeTest, NearestMatchesBruteForce) {
  Pcg32 rng(11);
  const int d = 4;
  InstanceKdTree tree(d);
  std::vector<SVector> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back(RandomSv(&rng, d));
    tree.Insert(i, points.back());
  }
  for (int trial = 0; trial < 20; ++trial) {
    SVector q = RandomSv(&rng, d);
    const int k = 7;
    auto got = tree.NearestByGl(q, k);
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    // Ascending order.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].log_gl, got[i].log_gl + 1e-12);
    }
    // Matches brute-force k smallest distances.
    std::vector<double> dists;
    for (const auto& p : points) dists.push_back(TrueLogGl(p, q));
    std::sort(dists.begin(), dists.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[static_cast<size_t>(i)].log_gl,
                  dists[static_cast<size_t>(i)], 1e-9);
    }
  }
}

TEST(InstanceKdTreeTest, PrunesSearchSpace) {
  Pcg32 rng(13);
  InstanceKdTree tree(2);
  for (int i = 0; i < 2000; ++i) tree.Insert(i, RandomSv(&rng, 2));
  // A tight range query should not visit the entire tree.
  tree.RangeQuery({0.5, 0.5}, 1.05);
  EXPECT_LT(tree.last_query_nodes_visited(), 1200);
}

TEST(InstanceKdTreeTest, EmptyTreeQueries) {
  InstanceKdTree tree(3);
  EXPECT_TRUE(tree.RangeQuery({0.1, 0.1, 0.1}, 2.0).empty());
  EXPECT_TRUE(tree.NearestByGl({0.1, 0.1, 0.1}, 5).empty());
}

/// SCR with the spatial index must make exactly the same optimize/reuse
/// decisions as the scanning implementation (the index is an accelerator,
/// not a semantic change).
TEST(ScrSpatialIndexTest, EquivalentToScan) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);

  ScrOptions scan_opts{.lambda = 1.5};
  ScrOptions index_opts{.lambda = 1.5};
  index_opts.use_spatial_index = true;
  Scr scan_scr(scan_opts);
  Scr index_scr(index_opts);
  EngineContext scan_engine(&db, &optimizer);
  EngineContext index_engine(&db, &optimizer);

  Pcg32 rng(5);
  for (int i = 0; i < 250; ++i) {
    WorkloadInstance wi;
    wi.id = i;
    wi.instance = InstanceForSelectivities(
        db, *tmpl,
        {rng.UniformDouble(0.005, 0.95), rng.UniformDouble(0.005, 0.95)});
    wi.svector = ComputeSelectivityVector(db, wi.instance);
    PlanChoice a = scan_scr.OnInstance(wi, &scan_engine);
    PlanChoice b = index_scr.OnInstance(wi, &index_engine);
    EXPECT_EQ(a.optimized, b.optimized) << "instance " << i;
    EXPECT_EQ(a.plan->signature, b.plan->signature) << "instance " << i;
  }
  EXPECT_EQ(scan_engine.num_optimizer_calls(),
            index_engine.num_optimizer_calls());
  EXPECT_EQ(scan_scr.NumPlansCached(), index_scr.NumPlansCached());
}

TEST(ScrSpatialIndexTest, WorksUnderPlanBudget) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);
  ScrOptions opts{.lambda = 1.1, .plan_budget = 2};
  opts.use_spatial_index = true;
  Scr scr(opts);
  EngineContext engine(&db, &optimizer);
  Pcg32 rng(6);
  for (int i = 0; i < 200; ++i) {
    WorkloadInstance wi;
    wi.id = i;
    wi.instance = InstanceForSelectivities(
        db, *tmpl,
        {rng.UniformDouble(0.005, 0.95), rng.UniformDouble(0.005, 0.95)});
    wi.svector = ComputeSelectivityVector(db, wi.instance);
    PlanChoice c = scr.OnInstance(wi, &engine);
    EXPECT_NE(c.plan, nullptr);
  }
  EXPECT_LE(scr.NumPlansCached(), 2);
}

}  // namespace
}  // namespace scrpqo
