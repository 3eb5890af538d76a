// Compiled selectivity estimation (DESIGN.md §4k): bit-identity against the
// per-call oracle in selectivity_oracle.h, and the lifetime and concurrency
// rules of the per-template SelectivityProgram.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "query/query_instance.h"
#include "query/selectivity_program.h"
#include "stats/histogram.h"
#include "tests/selectivity_oracle.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/named_templates.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace scrpqo {
namespace {

constexpr CompareOp kAllOps[] = {CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe,
                                 CompareOp::kEq};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

SchemaScale SmallScale() {
  SchemaScale s;
  s.factor = 0.2;
  return s;
}

// ---------------------------------------------------------------------------
// Histogram: binary search + prefix counts == linear walk, bit for bit.
// ---------------------------------------------------------------------------

/// Probe constants that exercise every branch of the bucket search: each
/// bucket bound and its floating-point neighbours, the column's extremes and
/// their neighbours, points outside the range, infinities, NaN, and random
/// points in and around the range.
std::vector<double> ProbePoints(const EquiDepthHistogram& h, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> pts = {
      0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
  auto with_neighbours = [&](double x) {
    pts.push_back(x);
    pts.push_back(std::nextafter(x, -kInf));
    pts.push_back(std::nextafter(x, kInf));
  };
  with_neighbours(h.min_value());
  with_neighbours(h.max_value());
  double prev = h.min_value();
  for (double u : h.upper_bounds()) {
    with_neighbours(u);
    pts.push_back(prev + (u - prev) * 0.5);
    prev = u;
  }
  const double span = std::max(1.0, h.max_value() - h.min_value());
  pts.push_back(h.min_value() - span);
  pts.push_back(h.max_value() + span);
  Pcg32 rng(seed);
  for (int i = 0; i < 200; ++i) {
    pts.push_back(rng.UniformDouble(h.min_value() - 0.1 * span,
                                    h.max_value() + 0.1 * span));
  }
  return pts;
}

/// Quantile targets: the grid, every bucket's cumulative fraction and its
/// neighbours, the clamp edges, and NaN.
std::vector<double> QuantileTargets(const EquiDepthHistogram& h) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> ts = {-0.5, 0.0, 1.0, 1.5,
                            std::numeric_limits<double>::quiet_NaN()};
  for (int i = 1; i < 100; ++i) ts.push_back(i / 100.0);
  int64_t cum = 0;
  for (int64_t c : h.counts()) {
    cum += c;
    const double f =
        static_cast<double>(cum) / static_cast<double>(h.row_count());
    for (double t : {f, 1.0 - f}) {
      ts.push_back(t);
      ts.push_back(std::nextafter(t, -kInf));
      ts.push_back(std::nextafter(t, kInf));
    }
  }
  return ts;
}

struct Column {
  const char* name;
  std::vector<double> values;
};

std::vector<Column> OracleColumns() {
  std::vector<Column> cols;
  Pcg32 rng(17);
  auto add = [&](const char* name, int n, auto gen) {
    Column c{name, {}};
    for (int i = 0; i < n; ++i) c.values.push_back(gen(i));
    cols.push_back(std::move(c));
  };
  add("uniform", 5000, [&](int) { return rng.UniformDouble(-50, 1000); });
  add("uniform_int", 5000,
      [&](int) { return static_cast<double>(rng.UniformInt(0, 100000)); });
  ZipfSampler zipf(500, 1.1);
  add("zipf", 5000,
      [&](int) { return static_cast<double>(zipf.Sample(&rng)); });
  add("normal", 5000, [&](int) { return rng.Normal(500, 120); });
  add("heavy_duplicates", 5000, [&](int i) {
    return i % 10 < 8 ? 42.0 : static_cast<double>(rng.UniformInt(0, 5));
  });
  add("few_distinct", 3000,
      [&](int) { return static_cast<double>(rng.UniformInt(0, 3)); });
  add("single_value", 100, [](int) { return 7.0; });
  add("sequential", 1000, [](int i) { return static_cast<double>(i); });
  add("tiny", 3, [](int i) { return static_cast<double>(i * i); });
  return cols;
}

TEST(SelectivityOracleTest, HistogramEstimatesAreBitIdentical) {
  int64_t checked = 0;
  for (const Column& col : OracleColumns()) {
    for (int buckets : {1, 4, 16, 64, 200}) {
      EquiDepthHistogram h = EquiDepthHistogram::Build(col.values, buckets);
      for (double c : ProbePoints(h, static_cast<uint64_t>(buckets))) {
        for (CompareOp op : kAllOps) {
          const double got = h.EstimateSelectivity(op, c);
          const double want = oracle::EstimateSelectivity(h, op, c);
          ASSERT_EQ(Bits(got), Bits(want))
              << col.name << " buckets=" << buckets
              << " op=" << CompareOpName(op) << " c=" << c << " got=" << got
              << " want=" << want;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(SelectivityOracleTest, QuantilesAreBitIdentical) {
  for (const Column& col : OracleColumns()) {
    for (int buckets : {1, 4, 16, 64}) {
      EquiDepthHistogram h = EquiDepthHistogram::Build(col.values, buckets);
      for (double t : QuantileTargets(h)) {
        for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                             CompareOp::kGe}) {
          const double got = h.QuantileForSelectivity(op, t);
          const double want = oracle::QuantileForSelectivity(h, op, t);
          ASSERT_EQ(Bits(got), Bits(want))
              << col.name << " buckets=" << buckets
              << " op=" << CompareOpName(op) << " target=" << t;
        }
      }
    }
  }
}

TEST(SelectivityOracleTest, EmptyHistogramIsBitIdentical) {
  EquiDepthHistogram h = EquiDepthHistogram::Build({}, 8);
  for (double c : {-1.0, 0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    for (CompareOp op : kAllOps) {
      EXPECT_EQ(Bits(h.EstimateSelectivity(op, c)),
                Bits(oracle::EstimateSelectivity(h, op, c)));
      EXPECT_EQ(Bits(h.EstimateSelectivity(op, c)), Bits(0.0));
    }
  }
}

// ---------------------------------------------------------------------------
// ComputeSelectivityVector == the per-call string-keyed oracle.
// ---------------------------------------------------------------------------

void ExpectMatchesOracle(const Database& db,
                         const std::vector<QueryInstance>& instances) {
  oracle::StringKeyedStats stats(db.catalog());
  for (const QueryInstance& q : instances) {
    const SVector got = ComputeSelectivityVector(db, q);
    const SVector want = oracle::ComputeSelectivityVector(stats, q);
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(Bits(got[k]), Bits(want[k])) << q.ToString();
    }
  }
}

/// Checks every instance of `bt` from the generator, plus random constants
/// in and around each column's range, against the oracle.
void ExpectTemplateMatchesOracle(const BoundTemplate& bt, uint64_t seed) {
  const Database& db = bt.db->db;
  const QueryTemplate& tmpl = *bt.tmpl;
  oracle::StringKeyedStats stats(db.catalog());

  std::vector<QueryInstance> instances;
  InstanceGenOptions gen;
  gen.m = 60;
  gen.seed = seed;
  for (const WorkloadInstance& wi : GenerateInstances(bt, gen)) {
    instances.push_back(wi.instance);
  }
  Pcg32 rng(seed);
  for (int i = 0; i < 60; ++i) {
    std::vector<Value> params;
    for (int slot = 0; slot < tmpl.dimensions(); ++slot) {
      const PredicateTemplate& p = tmpl.PredicateForSlot(slot);
      const ColumnStats& cs = stats.Get(
          tmpl.tables()[static_cast<size_t>(p.table_index)], p.column);
      const double span = std::max(1.0, cs.max_value - cs.min_value);
      const double v = rng.UniformDouble(cs.min_value - 0.05 * span,
                                         cs.max_value + 0.05 * span);
      if (i % 2 == 0) {
        params.emplace_back(static_cast<int64_t>(std::llround(v)));
      } else {
        params.emplace_back(v);
      }
    }
    instances.emplace_back(&tmpl, std::move(params));
  }
  ExpectMatchesOracle(db, instances);
}

TEST(SelectivityOracleTest, Rd2TemplatesMatchOracle) {
  BenchmarkDb rd2 = BuildRd2(SmallScale());
  for (int d = 1; d <= 10; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    ExpectTemplateMatchesOracle(BuildRd2TemplateWithDimensions(rd2, d),
                                static_cast<uint64_t>(100 + d));
  }
}

TEST(SelectivityOracleTest, TpchTemplatesMatchOracle) {
  std::vector<BenchmarkDb> dbs;
  dbs.push_back(BuildTpchSkewed(SmallScale()));
  ExpectTemplateMatchesOracle(BuildExample2dTemplate(dbs[0]), 7);
  int named = 0;
  for (const NamedTemplate& nt : ListNamedTemplates()) {
    if (nt.database != "TPCH") continue;
    SCOPED_TRACE(nt.name);
    ExpectTemplateMatchesOracle(BuildNamedTemplate(dbs, nt.name),
                                static_cast<uint64_t>(11 + named));
    ++named;
  }
  EXPECT_GT(named, 0);
}

// ---------------------------------------------------------------------------
// Program lifetime: uid keying, in-place stats updates, template changes.
// ---------------------------------------------------------------------------

std::vector<QueryInstance> JoinInstances(const Database& db,
                                         const QueryTemplate& tmpl) {
  std::vector<QueryInstance> out;
  for (double s0 : {0.05, 0.3, 0.7}) {
    for (double s1 : {0.1, 0.5, 0.9}) {
      out.push_back(InstanceForSelectivities(db, tmpl, {s0, s1}));
    }
  }
  return out;
}

TEST(SelectivityProgramTest, EachDatabaseGetsItsOwnEstimates) {
  auto tmpl = testing::MakeJoinTemplate();
  // Fixed constants, so the two databases' differing statistics show up as
  // differing estimates.
  std::vector<QueryInstance> instances;
  for (int64_t v : {50, 200, 600, 900}) {
    instances.emplace_back(tmpl.get(),
                           std::vector<Value>{Value(v), Value(v / 2)});
  }
  std::vector<SVector> first;
  {
    Database db = testing::MakeSmallDatabase(4000, 300, 1);
    ExpectMatchesOracle(db, instances);
    for (const QueryInstance& q : instances) {
      first.push_back(ComputeSelectivityVector(db, q));
    }
  }
  // The first database is gone; the second may reuse its memory. The
  // template's program for the first catalog must not be selected again.
  Database db = testing::MakeSmallDatabase(500, 50, 2);
  ExpectMatchesOracle(db, instances);
  int differing = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    if (ComputeSelectivityVector(db, instances[i]) != first[i]) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(SelectivityProgramTest, InPlaceStatsReplacementIsSeen) {
  Database db = testing::MakeSmallDatabase(2000, 200);
  auto tmpl = testing::MakeJoinTemplate();
  const std::vector<QueryInstance> instances = JoinInstances(db, *tmpl);
  ExpectMatchesOracle(db, instances);
  const SelectivityProgram* program = &tmpl->CompiledSelectivity(db.catalog());
  const SVector before = ComputeSelectivityVector(db, instances[4]);

  // Replace the first slot's column stats with a histogram over values
  // shifted up by 300.
  const PredicateTemplate& p = tmpl->PredicateForSlot(0);
  const std::string& table = tmpl->tables()[static_cast<size_t>(p.table_index)];
  const ColumnStats& old = db.catalog().GetColumnStats(table, p.column);
  std::vector<double> shifted;
  for (int i = 0; i < 1000; ++i) {
    shifted.push_back(old.min_value + 300.0 +
                      (old.max_value - old.min_value) * i / 1000.0);
  }
  ColumnStats replacement;
  replacement.row_count = 1000;
  replacement.distinct_count = 1000;
  replacement.min_value = shifted.front();
  replacement.max_value = shifted.back();
  replacement.histogram = EquiDepthHistogram::Build(shifted, 16);
  db.catalog().SetColumnStats(table, p.column, replacement);

  EXPECT_EQ(&tmpl->CompiledSelectivity(db.catalog()), program)
      << "an in-place stats update needs no recompile";
  ExpectMatchesOracle(db, instances);
  EXPECT_NE(Bits(ComputeSelectivityVector(db, instances[4])[0]),
            Bits(before[0]));
}

TEST(SelectivityProgramTest, CopiedTemplateRecompiles) {
  Database db = testing::MakeSmallDatabase(2000, 200);
  auto tmpl = testing::MakeJoinTemplate();
  const SelectivityProgram* original = &tmpl->CompiledSelectivity(db.catalog());
  QueryTemplate copy = *tmpl;
  const SelectivityProgram* copied = &copy.CompiledSelectivity(db.catalog());
  EXPECT_NE(copied, original);
  EXPECT_EQ(copied->dimensions(), 2);
  QueryTemplate assigned;
  assigned = copy;
  EXPECT_NE(&assigned.CompiledSelectivity(db.catalog()), copied);
  ExpectMatchesOracle(db, JoinInstances(db, copy));
  EXPECT_EQ(&tmpl->CompiledSelectivity(db.catalog()), original);
}

TEST(SelectivityProgramTest, AddPredicateRecompiles) {
  Database db = testing::MakeSmallDatabase(2000, 200);
  auto tmpl = testing::MakeJoinTemplate();
  ASSERT_EQ(tmpl->CompiledSelectivity(db.catalog()).dimensions(), 2);
  PredicateTemplate extra;
  extra.table_index = 0;
  extra.column = tmpl->PredicateForSlot(0).column;
  extra.op = CompareOp::kGe;
  extra.param_slot = 2;
  ASSERT_TRUE(tmpl->AddPredicate(extra).ok());
  ASSERT_EQ(tmpl->CompiledSelectivity(db.catalog()).dimensions(), 3);
  ExpectMatchesOracle(
      db, {InstanceForSelectivities(db, *tmpl, {0.2, 0.4, 0.6}),
           InstanceForSelectivities(db, *tmpl, {0.9, 0.1, 0.3})});
}

// ---------------------------------------------------------------------------
// Concurrency: the first call races compile-and-publish. Run under TSan by
// the thread-sanitizer CI job.
// ---------------------------------------------------------------------------

TEST(SelectivityProgramConcurrencyTest, EightThreadsRaceTheFirstCall) {
  Database db = testing::MakeSmallDatabase(2000, 200);
  auto tmpl = testing::MakeJoinTemplate();
  const std::vector<QueryInstance> instances = JoinInstances(db, *tmpl);
  oracle::StringKeyedStats stats(db.catalog());
  std::vector<SVector> want;
  for (const QueryInstance& q : instances) {
    want.push_back(oracle::ComputeSelectivityVector(stats, q));
  }

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<SVector>> got(kThreads);
  std::vector<const SelectivityProgram*> programs(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (const QueryInstance& q : instances) {
        got[static_cast<size_t>(t)].push_back(ComputeSelectivityVector(db, q));
      }
      programs[static_cast<size_t>(t)] =
          &tmpl->CompiledSelectivity(db.catalog());
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(programs[static_cast<size_t>(t)], programs[0]);
    ASSERT_EQ(got[static_cast<size_t>(t)].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[static_cast<size_t>(t)][i].size(), want[i].size());
      for (size_t k = 0; k < want[i].size(); ++k) {
        EXPECT_EQ(Bits(got[static_cast<size_t>(t)][i][k]), Bits(want[i][k]))
            << "thread " << t << " instance " << i;
      }
    }
  }
}

}  // namespace
}  // namespace scrpqo
