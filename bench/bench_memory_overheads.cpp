// Section 6.1 memory-overheads accounting: the plan list dominates the plan
// cache's footprint while instance-list 5-tuples are ~100 bytes each. This
// harness measures both exactly (via the cache snapshot API) for SCR across
// part of the suite and compares against the store-everything configuration.
#include "bench/bench_util.h"
#include "optimizer/plan_memory.h"
#include "pqo/scr.h"

using namespace scrpqo;
using namespace scrpqo::bench;

int main() {
  std::printf("== Section 6.1: plan-cache memory overheads ==\n");
  SuiteConfig cfg = SuiteConfig::FromEnv();
  cfg.num_templates = std::min(cfg.num_templates, 24);
  EvaluationSuite suite(cfg);

  PrintTableHeader({"variant", "plans avg", "instances avg", "plan KB avg",
                    "instance KB avg"});
  for (double lambda_r : {1.0, -1.0}) {
    std::vector<double> plans, instances_stored, plan_kb, inst_kb;
    for (const auto& tw : suite.workloads()) {
      EngineContext engine(&tw.bound.db->db, tw.optimizer.get());
      engine.SetOracle([&tw](const WorkloadInstance& wi) {
        return tw.oracle.result(wi.id);
      });
      Scr scr(ScrOptions{.lambda = 2.0, .lambda_r = lambda_r});
      std::vector<int> perm = MakeOrdering(
          OrderingKind::kRandom, tw.oracle.OrderingInfo(), cfg.seed + 77);
      for (int idx : perm) {
        scr.OnInstance(tw.instances[static_cast<size_t>(idx)], &engine);
      }
      // Exact footprint of the final cache contents.
      int64_t plan_bytes = 0;
      for (const auto& plan : scr.SnapshotPlans()) {
        plan_bytes += PlanMemoryBytes(*plan);
      }
      int64_t instance_bytes =
          scr.NumInstancesStored() *
          InstanceEntryBytes(tw.bound.tmpl->dimensions());
      plans.push_back(static_cast<double>(scr.NumPlansCached()));
      instances_stored.push_back(
          static_cast<double>(scr.NumInstancesStored()));
      plan_kb.push_back(static_cast<double>(plan_bytes) / 1024.0);
      inst_kb.push_back(static_cast<double>(instance_bytes) / 1024.0);
    }
    PrintTableRow({lambda_r >= 1.0 ? "store all (lambda_r=1)" : "paper (sqrt)",
                   FormatDouble(Mean(plans), 1),
                   FormatDouble(Mean(instances_stored), 1),
                   FormatDouble(Mean(plan_kb), 2),
                   FormatDouble(Mean(inst_kb), 2)});
  }
  std::printf("\n(plan skeletons here are a few KB — our engine's plans are "
              "much smaller\nthan SQL Server's shrunkenMemo, but the ratio "
              "plan-list >> instance-list\nmatches Section 6.1.)\n");
  return 0;
}
