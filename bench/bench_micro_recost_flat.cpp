// Flat-program vs tree-walk recost kernel (the tentpole perf gate).
//
// For the paper's multi-join RD2 templates at d = 2/4/8 this times, on the
// SAME cached plans and selectivity vectors:
//   - tree:  CostModel::RecostTree (recursive pointer chase; the old path)
//   - flat:  RecostProgram::Run (postorder linear scan; the new path)
// and emits machine-readable BENCH_recost.json. Before timing anything it
// verifies flat == tree to 1e-9 relative on every (plan, sv) pair it will
// measure, so the numbers can never come from a divergent kernel. Batched
// sweeps (the SIMD bundle against one Run per plan) are measured and gated
// by bench_micro_recost_batch.
//
// Flags:
//   --out=PATH          output JSON path (default BENCH_recost.json)
//   --min-speedup=S     exit non-zero unless geomean(tree/flat) >= S
//                       (CI smoke uses 1.0: "flat must not be slower")
// Env: BENCH_DUMP_PLAN=1 prints each timed plan tree before measuring.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace {

using namespace scrpqo;

/// ns per op of `fn`. Self-calibrates the batch size until one timed
/// window exceeds ~10ms, then reports the MINIMUM over 16 windows — the
/// noise-robust statistic on a shared/single-CPU container, where the
/// mean absorbs every scheduler preemption (and short windows make a
/// clean, preemption-free sample far more likely).
template <typename Fn>
double TimeNsPerOp(Fn&& fn) {
  fn();  // warm caches / fault in pages
  int64_t iters = 8;
  double ns = 0.0;
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (ns >= 1e7 || iters >= (int64_t{1} << 30)) break;
    iters *= 2;
  }
  double best = ns / static_cast<double>(iters);
  for (int rep = 0; rep < 15; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    best = std::min(best, ns / static_cast<double>(iters));
  }
  return best;
}

struct DimResult {
  int d = 0;
  int plan_nodes = 0;
  int pool_size = 0;
  double tree_ns = 0.0;
  double flat_ns = 0.0;
  double speedup = 0.0;
};

DimResult RunDimension(const BenchmarkDb& rd2, int d) {
  BoundTemplate bt = BuildRd2TemplateWithDimensions(rd2, d);
  Optimizer optimizer(&rd2.db);
  InstanceGenOptions gen;
  gen.m = 64;
  gen.seed = 1234 + static_cast<uint64_t>(d);
  std::vector<WorkloadInstance> instances = GenerateInstances(bt, gen);

  // Pool of distinct cached plans — the shape a live plan store has.
  std::vector<CachedPlan> pool;
  std::map<uint64_t, bool> seen;
  for (const auto& wi : instances) {
    OptimizationResult r =
        optimizer.OptimizeWithSVector(wi.instance, wi.svector);
    CachedPlan c = MakeCachedPlan(r);
    if (!seen.emplace(c.signature, true).second) continue;
    pool.push_back(std::move(c));
    if (pool.size() >= 16) break;
  }

  const CostModel& model = optimizer.cost_model();
  // Equivalence guard over everything we are about to time.
  for (const CachedPlan& plan : pool) {
    for (const auto& wi : instances) {
      double tree = model.RecostTree(*plan.plan, wi.svector);
      double flat = plan.program.Run(wi.svector, model.params());
      if (std::abs(flat - tree) > std::abs(tree) * 1e-9) {
        std::fprintf(stderr,
                     "FATAL: flat/tree divergence d=%d: %.17g vs %.17g\n",
                     d, flat, tree);
        std::exit(2);
      }
    }
  }

  if (std::getenv("BENCH_DUMP_PLAN") != nullptr) {
    std::printf("d=%d plan:\n%s\n", d, pool.front().plan->ToString().c_str());
  }
  DimResult out;
  out.d = d;
  out.plan_nodes = pool.front().plan->NodeCount();
  out.pool_size = static_cast<int>(pool.size());

  const CachedPlan& hot = pool.front();
  // Each timed "op" sweeps every sVector once, so per-call harness cost
  // (loop bookkeeping, the sink dependency) amortizes to ~zero and the
  // reported ns/call is the kernel alone — identically for both paths.
  std::vector<const SVector*> svs;
  for (const auto& wi : instances) svs.push_back(&wi.svector);
  const double n_sv = static_cast<double>(svs.size());
  double sink = 0.0;
  out.tree_ns = TimeNsPerOp([&] {
                  for (const SVector* sv : svs) {
                    sink += model.RecostTree(*hot.plan, *sv);
                  }
                }) /
                n_sv;
  out.flat_ns = TimeNsPerOp([&] {
                  for (const SVector* sv : svs) {
                    sink += hot.program.Run(*sv, model.params());
                  }
                }) /
                n_sv;
  out.speedup = out.tree_ns / out.flat_ns;
  if (sink == 42.0) std::printf("#");  // defeat whole-loop elision
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_recost.json";
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  SchemaScale scale;
  BenchmarkDb rd2 = BuildRd2(scale);
  std::vector<DimResult> results;
  for (int d : {2, 4, 8}) {
    results.push_back(RunDimension(rd2, d));
    const DimResult& r = results.back();
    std::printf(
        "d=%d nodes=%d pool=%d tree=%.1fns flat=%.1fns speedup=%.2fx\n",
        r.d, r.plan_nodes, r.pool_size, r.tree_ns, r.flat_ns, r.speedup);
  }

  double log_sum = 0.0;
  for (const DimResult& r : results) log_sum += std::log(r.speedup);
  double geomean = std::exp(log_sum / static_cast<double>(results.size()));
  std::printf("geomean_speedup=%.2fx\n", geomean);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_recost_flat\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const DimResult& r = results[i];
    std::fprintf(f,
                 "    {\"dimensions\": %d, \"plan_nodes\": %d, "
                 "\"pool_size\": %d, \"tree_ns_per_call\": %.2f, "
                 "\"flat_ns_per_call\": %.2f, \"speedup\": %.3f}%s\n",
                 r.d, r.plan_nodes, r.pool_size, r.tree_ns, r.flat_ns,
                 r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_speedup\": %.3f\n}\n", geomean);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: geomean speedup %.3f < required %.3f\n", geomean,
                 min_speedup);
    return 1;
  }
  return 0;
}
