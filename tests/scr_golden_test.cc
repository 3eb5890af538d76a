// Golden decision sequence for synchronous SCR under a plan budget.
//
// A 7-dimensional RD2 template, 6,000 fresh instances and a budget far
// below the working set make the cache churn: hundreds of LFU evictions,
// each dropping a plan and its instance entries. The per-instance decision
// (outcome, chosen plan's structural signature, Recost calls) is compared
// against testdata/scr_golden_decisions.txt: a change to how the cache is
// stored or scanned must leave every decision unchanged. After a header
// line, the file holds one "<outcome> <recosts> <signature>" line per
// instance, in FormatDecision's format.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "pqo/scr.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace scrpqo {
namespace {

constexpr int kDims = 7;
constexpr int kInstances = 6000;
constexpr int kPlanBudget = 3;
constexpr double kLambda = 1.5;

struct Decision {
  char outcome = '?';
  uint64_t signature = 0;
  int recosts = 0;

  bool operator==(const Decision&) const = default;
};

char OutcomeCode(DecisionOutcome o) {
  switch (o) {
    case DecisionOutcome::kSelCheckHit:
      return 'S';
    case DecisionOutcome::kCostCheckHit:
      return 'C';
    case DecisionOutcome::kOptimized:
      return 'O';
    case DecisionOutcome::kRedundantDiscard:
      return 'R';
    default:
      return '?';
  }
}

std::string FormatDecision(const Decision& d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%c %d %016" PRIx64, d.outcome, d.recosts,
                d.signature);
  return buf;
}

struct ChurnRun {
  std::vector<Decision> decisions;
  int64_t evictions = 0;
};

class ScrGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new BenchmarkDb(BuildRd2(SchemaScale{}));
    bound_ = new BoundTemplate(BuildRd2TemplateWithDimensions(*db_, kDims));
    InstanceGenOptions gen;
    gen.m = kInstances;
    gen.seed = 20170514;
    instances_ = new std::vector<WorkloadInstance>(
        GenerateInstances(*bound_, gen));
  }
  static void TearDownTestSuite() {
    delete instances_;
    delete bound_;
    delete db_;
  }

  /// Serves every instance through one synchronous Scr and returns its
  /// decisions in instance order. Checks along the way that the instance
  /// list holds no entry of an evicted plan.
  static ChurnRun Run(bool use_spatial_index) {
    ScrOptions opts;
    opts.lambda = kLambda;
    opts.plan_budget = kPlanBudget;
    opts.use_spatial_index = use_spatial_index;
    Scr scr(opts);
    Tracer tracer(1 << 16);
    scr.SetObs(ObsHooks{&tracer, nullptr});
    Optimizer optimizer(&db_->db);
    EngineContext engine(&db_->db, &optimizer);
    ChurnRun run;
    std::vector<PlanChoice> choices;
    choices.reserve(instances_->size());
    for (const WorkloadInstance& wi : *instances_) {
      choices.push_back(scr.OnInstance(wi, &engine));
      // Every stored entry points at a live plan: the snapshot keeps
      // exactly the entries whose plan is still cached.
      if (wi.id % 500 == 0) {
        EXPECT_EQ(scr.NumInstancesStored(),
                  static_cast<int64_t>(scr.SnapshotInstances().size()));
      }
    }
    EXPECT_EQ(scr.NumInstancesStored(),
              static_cast<int64_t>(scr.SnapshotInstances().size()));
    EXPECT_LE(scr.NumPlansCached(), kPlanBudget);

    std::vector<char> outcome(instances_->size(), '?');
    for (const DecisionEvent& e : tracer.Snapshot()) {
      if (e.outcome == DecisionOutcome::kEvicted) {
        ++run.evictions;
      } else if (IsDecisionOutcome(e.outcome)) {
        outcome[static_cast<size_t>(e.instance_id)] = OutcomeCode(e.outcome);
      }
    }
    for (size_t i = 0; i < choices.size(); ++i) {
      Decision d;
      d.outcome = outcome[i];
      d.signature = choices[i].plan != nullptr ? choices[i].plan->signature : 0;
      d.recosts = choices[i].recost_calls_in_get_plan;
      run.decisions.push_back(d);
    }
    return run;
  }

  static BenchmarkDb* db_;
  static BoundTemplate* bound_;
  static std::vector<WorkloadInstance>* instances_;
};

BenchmarkDb* ScrGoldenTest::db_ = nullptr;
BoundTemplate* ScrGoldenTest::bound_ = nullptr;
std::vector<WorkloadInstance>* ScrGoldenTest::instances_ = nullptr;

TEST_F(ScrGoldenTest, ChurnedDecisionsMatchRecording) {
  const std::string path =
      std::string(SCRPQO_TESTDATA_DIR) + "/scr_golden_decisions.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::string header;
  std::getline(in, header);
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  ChurnRun run = Run(/*use_spatial_index=*/false);
  // Enough churn to exercise the eviction path many times over.
  EXPECT_GE(run.evictions, 200);
  std::ostringstream want_header;
  want_header << "instances " << kInstances << " evictions " << run.evictions;
  EXPECT_EQ(header, want_header.str());
  ASSERT_EQ(golden.size(), run.decisions.size());
  int mismatches = 0;
  for (size_t i = 0; i < golden.size(); ++i) {
    const std::string got = FormatDecision(run.decisions[i]);
    if (got != golden[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "instance " << i << ": got '" << got << "', golden '"
                    << golden[i] << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST_F(ScrGoldenTest, SpatialIndexMatchesLinearScanUnderChurn) {
  // Static lambda and a plan budget: every eviction rebuilds the k-d tree
  // from the compacted instance list, and the index must answer both
  // checks exactly as the linear scan does.
  ChurnRun linear = Run(/*use_spatial_index=*/false);
  ChurnRun spatial = Run(/*use_spatial_index=*/true);
  EXPECT_GE(spatial.evictions, 200);
  EXPECT_EQ(spatial.evictions, linear.evictions);
  ASSERT_EQ(spatial.decisions.size(), linear.decisions.size());
  int mismatches = 0;
  for (size_t i = 0; i < linear.decisions.size(); ++i) {
    if (!(spatial.decisions[i] == linear.decisions[i]) && ++mismatches <= 5) {
      ADD_FAILURE() << "instance " << i << ": spatial '"
                    << FormatDecision(spatial.decisions[i]) << "', linear '"
                    << FormatDecision(linear.decisions[i]) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace scrpqo
