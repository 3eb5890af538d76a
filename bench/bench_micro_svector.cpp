// Compiled sVector program vs the per-call oracle (the selectivity-layer
// perf gate).
//
// For RD2 templates at d = 2/4/8 this times, on the SAME instances:
//   - oracle:   tests/selectivity_oracle.h — per dimension a
//               "table.column" string, a string-keyed map probe and a
//               linear bucket walk (the original path)
//   - compiled: ComputeSelectivityVector — the template's
//               SelectivityProgram (binary searches over prefix counts),
//               returning a fresh SVector
//   - evaluate: SelectivityProgram::Evaluate into a caller-owned span (no
//               allocation at all)
// and emits machine-readable BENCH_svector.json. Before timing anything it
// verifies compiled == oracle bitwise for every instance it will measure,
// so the numbers can never come from a divergent estimator.
//
// Flags:
//   --out=PATH          output JSON path (default BENCH_svector.json)
//   --min-speedup=S     exit non-zero unless geomean(oracle/compiled) over
//                       d = 2/4/8 >= S (CI perf-smoke uses 2.0)
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "query/query_instance.h"
#include "query/selectivity_program.h"
#include "tests/selectivity_oracle.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace {

using namespace scrpqo;

/// ns per op of `fn`: self-calibrates the batch until one timed window
/// exceeds ~10ms, then reports the MINIMUM over 16 windows (the
/// noise-robust statistic on a shared host; same harness as
/// bench_micro_recost_flat).
template <typename Fn>
double TimeNsPerOp(Fn&& fn) {
  fn();
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
  int instances = 0;
  double oracle_ns = 0.0;
  double compiled_ns = 0.0;
  double evaluate_ns = 0.0;
  double speedup = 0.0;
};

DimResult RunDimension(const BenchmarkDb& rd2, int d) {
  BoundTemplate bt = BuildRd2TemplateWithDimensions(rd2, d);
  InstanceGenOptions gen;
  gen.m = 64;
  gen.seed = 4321 + static_cast<uint64_t>(d);
  std::vector<QueryInstance> instances;
  for (const WorkloadInstance& wi : GenerateInstances(bt, gen)) {
    instances.push_back(wi.instance);
  }
  const Database& db = rd2.db;
  const oracle::StringKeyedStats stats(db.catalog());

  // Equivalence guard over everything we are about to time.
  for (const QueryInstance& q : instances) {
    const SVector got = ComputeSelectivityVector(db, q);
    const SVector want = oracle::ComputeSelectivityVector(stats, q);
    if (got.size() != want.size()) {
      std::fprintf(stderr, "FATAL: sVector size %zu vs %zu at d=%d\n",
                   got.size(), want.size(), d);
      std::exit(2);
    }
    for (size_t k = 0; k < want.size(); ++k) {
      if (std::bit_cast<uint64_t>(got[k]) != std::bit_cast<uint64_t>(want[k])) {
        std::fprintf(stderr,
                     "FATAL: compiled/oracle divergence d=%d slot %zu: "
                     "%.17g vs %.17g\n",
                     d, k, got[k], want[k]);
        std::exit(2);
      }
    }
  }

  DimResult out;
  out.d = d;
  out.instances = static_cast<int>(instances.size());
  const double n = static_cast<double>(instances.size());
  // Each timed op sweeps every instance once; the sink keeps every result
  // live.
  double sink = 0.0;
  out.oracle_ns = TimeNsPerOp([&] {
                    for (const QueryInstance& q : instances) {
                      sink += oracle::ComputeSelectivityVector(stats, q)[0];
                    }
                  }) /
                  n;
  out.compiled_ns = TimeNsPerOp([&] {
                      for (const QueryInstance& q : instances) {
                        sink += ComputeSelectivityVector(db, q)[0];
                      }
                    }) /
                    n;
  const SelectivityProgram& program =
      bt.tmpl->CompiledSelectivity(db.catalog());
  std::vector<double> scratch(static_cast<size_t>(d));
  out.evaluate_ns = TimeNsPerOp([&] {
                      for (const QueryInstance& q : instances) {
                        program.Evaluate(q, scratch);
                        sink += scratch[0];
                      }
                    }) /
                    n;
  out.speedup = out.oracle_ns / out.compiled_ns;
  if (sink == 42.0) std::printf("#");  // defeat whole-loop elision
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_svector.json";
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

  BenchmarkDb rd2 = BuildRd2(SchemaScale{});
  std::vector<DimResult> results;
  for (int d : {2, 4, 8}) {
    results.push_back(RunDimension(rd2, d));
    const DimResult& r = results.back();
    std::printf(
        "d=%d instances=%d oracle=%.1fns compiled=%.1fns evaluate=%.1fns "
        "speedup=%.2fx\n",
        r.d, r.instances, r.oracle_ns, r.compiled_ns, r.evaluate_ns,
        r.speedup);
  }
  double log_sum = 0.0;
  for (const DimResult& r : results) log_sum += std::log(r.speedup);
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("geomean_speedup=%.2fx hw_threads=%u\n", geomean, hw);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"micro_svector\",\n  \"hw_threads\": %u,\n"
               "  \"results\": [\n",
               hw);
  for (size_t i = 0; i < results.size(); ++i) {
    const DimResult& r = results[i];
    std::fprintf(f,
                 "    {\"dimensions\": %d, \"instances\": %d, "
                 "\"oracle_ns_per_call\": %.2f, "
                 "\"compiled_ns_per_call\": %.2f, "
                 "\"evaluate_ns_per_call\": %.2f, \"speedup\": %.3f}%s\n",
                 r.d, r.instances, r.oracle_ns, r.compiled_ns, r.evaluate_ns,
                 r.speedup, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_speedup\": %.3f\n}\n", geomean);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::fprintf(stderr, "FAIL: geomean speedup %.3f < required %.3f\n",
                 geomean, min_speedup);
    return 1;
  }
  return 0;
}
