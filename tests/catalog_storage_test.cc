#include <gtest/gtest.h>

#include <set>

#include "catalog/catalog.h"
#include "storage/database.h"
#include "storage/table_data.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

// gcc's -Wmissing-field-initializers fires on `ColumnDef{.name = ...}`
// even though every other member has a default initializer.
ColumnDef NamedColumn(const std::string& name) {
  ColumnDef c;
  c.name = name;
  return c;
}

TEST(CatalogTest, AddAndFindTable) {
  Catalog cat;
  TableDef def;
  def.name = "t";
  def.row_count = 10;
  def.columns = {NamedColumn("a")};
  ASSERT_TRUE(cat.AddTable(def).ok());
  EXPECT_NE(cat.FindTable("t"), nullptr);
  EXPECT_EQ(cat.FindTable("missing"), nullptr);
  EXPECT_EQ(cat.GetTable("t").row_count, 10);
}

TEST(CatalogTest, RejectsDuplicateTable) {
  Catalog cat;
  TableDef def;
  def.name = "t";
  ASSERT_TRUE(cat.AddTable(def).ok());
  Status st = cat.AddTable(def);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RejectsIndexOnUnknownColumn) {
  Catalog cat;
  TableDef def;
  def.name = "t";
  def.columns = {NamedColumn("a")};
  def.indexes = {IndexDef{"ix", "nope", false}};
  Status st = cat.AddTable(def);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, ColumnIndexLookup) {
  TableDef def;
  def.columns = {NamedColumn("a"), NamedColumn("b")};
  EXPECT_EQ(def.ColumnIndex("a"), 0);
  EXPECT_EQ(def.ColumnIndex("b"), 1);
  EXPECT_EQ(def.ColumnIndex("c"), -1);
  EXPECT_TRUE(def.HasColumn("b"));
  EXPECT_FALSE(def.HasColumn("c"));
}

TEST(CatalogTest, FindIndexOn) {
  TableDef def;
  def.columns = {NamedColumn("a"), NamedColumn("b")};
  def.indexes = {IndexDef{"ix_a", "a", false}};
  EXPECT_NE(def.FindIndexOn("a"), nullptr);
  EXPECT_EQ(def.FindIndexOn("b"), nullptr);
}

TEST(CatalogTest, ColumnStatsRegistry) {
  Catalog cat;
  ColumnStats stats;
  stats.row_count = 5;
  cat.SetColumnStats("t", "a", stats);
  ASSERT_NE(cat.FindColumnStats("t", "a"), nullptr);
  EXPECT_EQ(cat.GetColumnStats("t", "a").row_count, 5);
  EXPECT_EQ(cat.FindColumnStats("t", "b"), nullptr);
}

TEST(CatalogTest, DottedNamesGetDistinctStats) {
  // ("a.b", "c") and ("a", "b.c") would share the key "a.b.c" if the
  // table and column were joined into one string.
  Catalog cat;
  ColumnStats first;
  first.row_count = 11;
  ColumnStats second;
  second.row_count = 22;
  cat.SetColumnStats("a.b", "c", first);
  cat.SetColumnStats("a", "b.c", second);
  ASSERT_NE(cat.FindColumnStats("a.b", "c"), nullptr);
  ASSERT_NE(cat.FindColumnStats("a", "b.c"), nullptr);
  EXPECT_NE(cat.FindColumnStats("a.b", "c"), cat.FindColumnStats("a", "b.c"));
  EXPECT_EQ(cat.GetColumnStats("a.b", "c").row_count, 11);
  EXPECT_EQ(cat.GetColumnStats("a", "b.c").row_count, 22);
  EXPECT_EQ(cat.FindColumnStats("a.b.c", ""), nullptr);
  EXPECT_EQ(cat.FindColumnStats("", "a.b.c"), nullptr);
}

TEST(CatalogTest, SetColumnStatsKeepsTheNode) {
  Catalog cat;
  ColumnStats stats;
  stats.row_count = 5;
  cat.SetColumnStats("t", "a", stats);
  const ColumnStats* node = cat.FindColumnStats("t", "a");
  stats.row_count = 9;
  cat.SetColumnStats("t", "a", stats);
  EXPECT_EQ(cat.FindColumnStats("t", "a"), node);
  EXPECT_EQ(node->row_count, 9);
}

TEST(CatalogTest, UidIsFreshForCopiesAndMovedFrom) {
  Catalog a;
  Catalog b;
  EXPECT_NE(a.uid(), b.uid());
  ColumnStats stats;
  stats.row_count = 3;
  a.SetColumnStats("t", "a", stats);
  const uint64_t a_uid = a.uid();
  const ColumnStats* node = a.FindColumnStats("t", "a");

  Catalog copy(a);
  EXPECT_NE(copy.uid(), a_uid);
  EXPECT_NE(copy.FindColumnStats("t", "a"), node);

  // The moved-to catalog owns the moved nodes, and with them the uid.
  Catalog moved(std::move(a));
  EXPECT_EQ(moved.uid(), a_uid);
  EXPECT_EQ(moved.FindColumnStats("t", "a"), node);
  EXPECT_NE(a.uid(), a_uid);  // NOLINT(bugprone-use-after-move)

  const uint64_t b_uid = b.uid();
  b = copy;
  EXPECT_NE(b.uid(), b_uid);
  EXPECT_NE(b.uid(), copy.uid());
  Catalog c;
  const uint64_t moved_uid = moved.uid();
  c = std::move(moved);
  EXPECT_EQ(c.uid(), moved_uid);
  EXPECT_EQ(c.FindColumnStats("t", "a"), node);
  EXPECT_NE(moved.uid(), moved_uid);  // NOLINT(bugprone-use-after-move)
}

TEST(GeneratorTest, DeterministicAcrossRuns) {
  Database a = testing::MakeSmallDatabase(500, 50, 99);
  Database b = testing::MakeSmallDatabase(500, 50, 99);
  const ColumnData& ca = a.GetTableData("fact").column("f_value");
  const ColumnData& cb = b.GetTableData("fact").column("f_value");
  ASSERT_EQ(ca.size(), cb.size());
  for (int64_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca.GetDouble(i), cb.GetDouble(i));
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentData) {
  Database a = testing::MakeSmallDatabase(500, 50, 1);
  Database b = testing::MakeSmallDatabase(500, 50, 2);
  const ColumnData& ca = a.GetTableData("fact").column("f_value");
  const ColumnData& cb = b.GetTableData("fact").column("f_value");
  int diff = 0;
  for (int64_t i = 0; i < ca.size(); ++i) {
    if (ca.GetDouble(i) != cb.GetDouble(i)) ++diff;
  }
  EXPECT_GT(diff, 400);
}

TEST(GeneratorTest, RowCountsMatchDefinitions) {
  Database db = testing::MakeSmallDatabase(1234, 77);
  EXPECT_EQ(db.GetTableData("fact").row_count(), 1234);
  EXPECT_EQ(db.GetTableData("dim").row_count(), 77);
}

TEST(GeneratorTest, SequentialColumnIsIdentity) {
  Database db = testing::MakeSmallDatabase(100, 50);
  const ColumnData& pk = db.GetTableData("dim").column("d_key");
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(pk.GetValue(i).int64(), i);
  }
}

TEST(GeneratorTest, ForeignKeysReferenceParentDomain) {
  Database db = testing::MakeSmallDatabase(1000, 40);
  const ColumnData& fk = db.GetTableData("fact").column("f_dim");
  for (int64_t i = 0; i < fk.size(); ++i) {
    int64_t v = fk.GetValue(i).int64();
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 40);
  }
}

TEST(GeneratorTest, StatsMatchGeneratedData) {
  Database db = testing::MakeSmallDatabase(2000, 100);
  const ColumnStats& stats = db.catalog().GetColumnStats("fact", "f_value");
  EXPECT_EQ(stats.row_count, 2000);
  const ColumnData& col = db.GetTableData("fact").column("f_value");
  // Brute-force check one selectivity point.
  double c = 5000.0;
  int64_t matches = 0;
  for (int64_t i = 0; i < col.size(); ++i) {
    if (col.GetDouble(i) <= c) ++matches;
  }
  double truth = static_cast<double>(matches) / 2000.0;
  EXPECT_NEAR(stats.Selectivity(CompareOp::kLe, Value(c)), truth, 0.03);
}

TEST(GeneratorTest, StatsOnlyModeSkipsRows) {
  std::vector<TableDef> defs;
  TableDef t;
  t.name = "x";
  t.row_count = 100;
  t.columns = {NamedColumn("a")};
  defs.push_back(t);
  GeneratorOptions opts;
  opts.materialize_rows = false;
  Database db = GenerateDatabase(defs, opts);
  EXPECT_FALSE(db.HasTableData("x"));
  // Statistics are still available.
  EXPECT_EQ(db.catalog().GetColumnStats("x", "a").row_count, 100);
}

TEST(GeneratorTest, ZipfColumnIsSkewed) {
  Database db = testing::MakeSmallDatabase(5000, 50);
  const ColumnStats& stats = db.catalog().GetColumnStats("fact", "f_weight");
  // Zipf(theta=1) over [0,1000]: the bottom 5% of the domain holds far more
  // than 5% of rows.
  EXPECT_GT(stats.Selectivity(CompareOp::kLe, Value(50.0)), 0.3);
}

TEST(ColumnDataTest, TypedAppendAndRead) {
  ColumnData c(DataType::kString);
  c.AppendString("q");
  c.AppendString("r");
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetValue(1).str(), "r");
}

TEST(SortedIndexTest, RangeLookupOperators) {
  ColumnData c(DataType::kInt64);
  for (int64_t v : {5, 1, 9, 3, 7, 3}) c.AppendInt64(v);
  SortedIndex idx = SortedIndex::Build(c);
  EXPECT_EQ(idx.size(), 6);

  auto le3 = idx.RangeLookup(CompareOp::kLe, 3.0);
  EXPECT_EQ(le3.size(), 3u);  // 1, 3, 3
  auto lt3 = idx.RangeLookup(CompareOp::kLt, 3.0);
  EXPECT_EQ(lt3.size(), 1u);
  auto ge7 = idx.RangeLookup(CompareOp::kGe, 7.0);
  EXPECT_EQ(ge7.size(), 2u);  // 7, 9
  auto eq3 = idx.RangeLookup(CompareOp::kEq, 3.0);
  EXPECT_EQ(eq3.size(), 2u);
  auto eq4 = idx.RangeLookup(CompareOp::kEq, 4.0);
  EXPECT_TRUE(eq4.empty());
}

TEST(SortedIndexTest, ReturnsRowsInKeyOrder) {
  ColumnData c(DataType::kInt64);
  for (int64_t v : {50, 10, 90, 30, 70}) c.AppendInt64(v);
  SortedIndex idx = SortedIndex::Build(c);
  auto all = idx.RangeLookup(CompareOp::kGe, -1.0);
  ASSERT_EQ(all.size(), 5u);
  double prev = -1.0;
  for (int64_t row : all) {
    double v = c.GetDouble(row);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(TableDataTest, IndexRegistry) {
  Database db = testing::MakeSmallDatabase(200, 20);
  const TableData& fact = db.GetTableData("fact");
  EXPECT_NE(fact.FindIndex("f_dim"), nullptr);
  EXPECT_NE(fact.FindIndex("f_value"), nullptr);
  EXPECT_EQ(fact.FindIndex("f_weight"), nullptr);
}

}  // namespace
}  // namespace scrpqo
