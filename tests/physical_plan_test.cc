#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/plan_memory.h"
#include "optimizer/physical_plan.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

TEST(PhysicalOpNameTest, AllKindsNamed) {
  for (PhysicalOpKind kind :
       {PhysicalOpKind::kTableScan, PhysicalOpKind::kIndexSeek,
        PhysicalOpKind::kIndexScanOrdered, PhysicalOpKind::kSort,
        PhysicalOpKind::kHashJoin, PhysicalOpKind::kMergeJoin,
        PhysicalOpKind::kIndexedNestedLoopsJoin,
        PhysicalOpKind::kNaiveNestedLoopsJoin,
        PhysicalOpKind::kHashAggregate, PhysicalOpKind::kStreamAggregate}) {
    EXPECT_NE(PhysicalOpName(kind), "Unknown");
  }
}

TEST(SortKeyTest, EqualityAndOrdering) {
  SortKey a{0, "x"}, b{0, "x"}, c{0, "y"}, d{1, "x"};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);
  EXPECT_TRUE(a < d);
  EXPECT_EQ(a.ToString(), "t0.x");
}

TEST(PlanNodeTest, LeafAndJoinClassification) {
  PhysicalPlanNode scan;
  scan.kind = PhysicalOpKind::kTableScan;
  EXPECT_TRUE(scan.is_leaf());
  EXPECT_FALSE(scan.is_join());
  PhysicalPlanNode hj;
  hj.kind = PhysicalOpKind::kHashJoin;
  EXPECT_TRUE(hj.is_join());
  EXPECT_FALSE(hj.is_leaf());
  PhysicalPlanNode sort;
  sort.kind = PhysicalOpKind::kSort;
  EXPECT_FALSE(sort.is_leaf());
  EXPECT_FALSE(sort.is_join());
}

class PlanRenderTest : public ::testing::Test {
 protected:
  PlanRenderTest()
      : db_(testing::MakeSmallDatabase(5000, 200)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {}

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(PlanRenderTest, ToStringContainsOperatorsAndTables) {
  OptimizationResult r = optimizer_.Optimize(
      InstanceForSelectivities(db_, *tmpl_, {0.3, 0.5}));
  std::string s = r.plan->ToString();
  EXPECT_NE(s.find("fact"), std::string::npos);
  EXPECT_NE(s.find("dim"), std::string::npos);
  EXPECT_NE(s.find("rows="), std::string::npos);
  EXPECT_NE(s.find("cost="), std::string::npos);
  // Indented children: at least one line starts with two spaces.
  EXPECT_NE(s.find("\n  "), std::string::npos);
}

TEST_F(PlanRenderTest, ParameterizedPredicateShowsSlot) {
  OptimizationResult r = optimizer_.Optimize(
      InstanceForSelectivities(db_, *tmpl_, {0.01, 0.5}));
  std::string s = r.plan->ToString();
  EXPECT_NE(s.find("$0"), std::string::npos);
}

TEST_F(PlanRenderTest, NodeCountMatchesStructure) {
  OptimizationResult r = optimizer_.Optimize(
      InstanceForSelectivities(db_, *tmpl_, {0.3, 0.5}));
  int count = r.plan->NodeCount();
  int manual = 0;
  std::function<void(const PhysicalPlanNode&)> walk =
      [&](const PhysicalPlanNode& n) {
        ++manual;
        for (const auto& c : n.children) walk(*c);
      };
  walk(*r.plan);
  EXPECT_EQ(count, manual);
  EXPECT_GE(count, 3);  // join of two leaves at minimum
}

TEST_F(PlanRenderTest, PlanMemoryBytesScalesWithTree) {
  OptimizationResult r = optimizer_.Optimize(
      InstanceForSelectivities(db_, *tmpl_, {0.3, 0.5}));
  int64_t whole = PlanMemoryBytes(*r.plan);
  int64_t child = PlanMemoryBytes(*r.plan->children[0]);
  EXPECT_GT(whole, child);
  EXPECT_GT(whole,
            static_cast<int64_t>(sizeof(PhysicalPlanNode)) *
                r.plan->NodeCount());
}

TEST(InstanceEntryBytesTest, MatchesPaperOrder) {
  // The paper says ~100 bytes per 5-tuple. Scr stores V as d doubles in a
  // flat array and the other four fields in one InstanceMeta, so the
  // accounting is exactly that layout.
  EXPECT_EQ(InstanceEntryBytes(2),
            static_cast<int64_t>(2 * sizeof(double) +
                                 sizeof(Scr::InstanceMeta)));
  EXPECT_EQ(InstanceEntryBytes(2), 48);
  EXPECT_LT(InstanceEntryBytes(10), 200);
  EXPECT_GT(InstanceEntryBytes(10), InstanceEntryBytes(2));
}

}  // namespace
}  // namespace scrpqo
