// getPlan throughput under concurrent readers (the AsyncScr read path).
//
// Warms an AsyncScr cache on an RD2 multi-join template, then drives it
// from 1/2/4/8 request threads re-querying the warmed instances (pure
// selectivity/cost-check traffic: every call takes the shared lock, none
// optimizes), with a MetricsRegistry attached. Each thread count is timed
// in several windows, interleaved round-robin with the other counts so
// that slow drift on a shared host (frequency, neighbours) spreads over
// every count instead of landing on whichever ran last. Reports per count:
//   - qps as the median over its windows, with the quartiles and IQR;
//   - p50/p99 getPlan latency in nanoseconds, from the bench's own clock
//     reads around every kSampleEvery-th call of every thread (not the
//     registry's log-histogram, whose sub-microsecond buckets report
//     midpoints);
//   - the shared/exclusive lock-acquisition counters.
// Emits machine-readable BENCH_throughput.json. Scaling beyond one thread
// requires hardware cores: on a single-CPU container the 8-thread row
// measures contention, not parallelism (the JSON records hw_threads).
//
// Flags:
//   --out=PATH         output JSON path (default BENCH_throughput.json)
//   --duration-ms=N    timed window (default 200)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "pqo/async_scr.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace {

using namespace scrpqo;

/// One call in this many per thread is timed for the latency percentiles.
constexpr int kSampleEvery = 8;
/// Timed windows per thread count.
constexpr int kWindows = 5;
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kNumCounts = 4;

struct ThreadResult {
  int threads = 0;
  int64_t queries = 0;
  std::vector<double> window_qps;
  std::vector<int64_t> latency_ns;
  int64_t lock_shared = 0;
  int64_t lock_exclusive = 0;
  int64_t misses = 0;
};

/// Linear-interpolated quantile `q` in [0, 1] of `sorted`.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Nearest-rank percentile `p` in (0, 100] of `values` (reorders them).
int64_t PercentileNs(std::vector<int64_t>* values, double p) {
  if (values->empty()) return 0;
  size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(values->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values->size());
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

/// Runs one timed window of `threads` readers; appends to `r`.
void RunWindow(AsyncScr* scr, EngineContext* engine,
               const std::vector<WorkloadInstance>& warmed, int threads,
               int duration_ms, ThreadResult* r) {
  MetricsRegistry registry;
  scr->SetObs(ObsHooks{nullptr, &registry});
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> misses{0};
  std::vector<std::vector<int64_t>> samples(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<int64_t>& mine = samples[static_cast<size_t>(t)];
      mine.reserve(1 << 16);
      size_t i = static_cast<size_t>(t) * 13;
      int64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const WorkloadInstance& wi = warmed[i++ % warmed.size()];
        PlanChoice c;
        if (local % kSampleEvery == 0) {
          auto t0 = std::chrono::steady_clock::now();
          c = scr->OnInstance(wi, engine);
          auto t1 = std::chrono::steady_clock::now();
          mine.push_back(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
        } else {
          c = scr->OnInstance(wi, engine);
        }
        if (c.optimized) misses.fetch_add(1);
        ++local;
      }
      queries.fetch_add(local);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& th : pool) th.join();
  auto t1 = std::chrono::steady_clock::now();
  scr->Flush();
  scr->SetObs(ObsHooks{});
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  const RegistrySnapshot snap = registry.Snapshot();
  r->queries += queries.load();
  r->misses += misses.load();
  r->window_qps.push_back(static_cast<double>(queries.load()) / secs);
  r->lock_shared += snap.CounterValue("async_scr.lock_shared");
  r->lock_exclusive += snap.CounterValue("async_scr.lock_exclusive");
  for (const std::vector<int64_t>& s : samples) {
    r->latency_ns.insert(r->latency_ns.end(), s.begin(), s.end());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  int duration_ms = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--duration-ms=", 14) == 0) {
      duration_ms = std::atoi(argv[i] + 14);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  SchemaScale scale;
  BenchmarkDb rd2 = BuildRd2(scale);
  BoundTemplate bt = BuildRd2TemplateWithDimensions(rd2, 4);
  Optimizer optimizer(&rd2.db);
  EngineContext engine(&rd2.db, &optimizer);
  InstanceGenOptions gen;
  gen.m = 48;
  gen.seed = 77;
  std::vector<WorkloadInstance> warmed = GenerateInstances(bt, gen);

  AsyncScr scr(ScrOptions{.lambda = 2.0});
  for (const auto& wi : warmed) {
    (void)scr.OnInstance(wi, &engine);
    scr.Flush();
  }

  std::vector<ThreadResult> results(kNumCounts);
  for (int c = 0; c < kNumCounts; ++c) results[c].threads = kThreadCounts[c];
  for (int w = 0; w < kWindows; ++w) {
    for (ThreadResult& r : results) {
      RunWindow(&scr, &engine, warmed, r.threads, duration_ms, &r);
    }
  }

  std::vector<double> median_qps(kNumCounts);
  for (int c = 0; c < kNumCounts; ++c) {
    std::sort(results[c].window_qps.begin(), results[c].window_qps.end());
    median_qps[c] = Quantile(results[c].window_qps, 0.5);
  }
  const double scaling =
      median_qps.front() > 0.0 ? median_qps.back() / median_qps.front() : 0.0;
  unsigned hw = std::thread::hardware_concurrency();

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput_getplan\",\n"
               "  \"hw_threads\": %u,\n  \"windows\": %d,\n"
               "  \"window_ms\": %d,\n  \"latency_sample_every\": %d,\n"
               "  \"results\": [\n",
               hw, kWindows, duration_ms, kSampleEvery);
  for (int c = 0; c < kNumCounts; ++c) {
    ThreadResult& r = results[c];
    const double q1 = Quantile(r.window_qps, 0.25);
    const double q3 = Quantile(r.window_qps, 0.75);
    const int64_t p50 = PercentileNs(&r.latency_ns, 50.0);
    const int64_t p99 = PercentileNs(&r.latency_ns, 99.0);
    std::printf(
        "threads=%d qps median=%.0f IQR=%.0f [%.0f, %.0f] p50=%lldns "
        "p99=%lldns shared=%lld exclusive=%lld misses=%lld\n",
        r.threads, median_qps[c], q3 - q1, q1, q3,
        static_cast<long long>(p50), static_cast<long long>(p99),
        static_cast<long long>(r.lock_shared),
        static_cast<long long>(r.lock_exclusive),
        static_cast<long long>(r.misses));
    std::fprintf(f,
                 "    {\"threads\": %d, \"queries\": %lld, \"qps\": %.1f, "
                 "\"qps_q1\": %.1f, \"qps_q3\": %.1f, \"qps_iqr\": %.1f, "
                 "\"p50_ns\": %lld, \"p99_ns\": %lld, "
                 "\"latency_samples\": %zu, "
                 "\"lock_shared\": %lld, \"lock_exclusive\": %lld}%s\n",
                 r.threads, static_cast<long long>(r.queries), median_qps[c],
                 q1, q3, q3 - q1, static_cast<long long>(p50),
                 static_cast<long long>(p99), r.latency_ns.size(),
                 static_cast<long long>(r.lock_shared),
                 static_cast<long long>(r.lock_exclusive),
                 c + 1 < kNumCounts ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"scaling_8_vs_1\": %.3f\n}\n", scaling);
  std::fclose(f);
  std::printf("scaling_8_vs_1=%.2fx (medians) hw_threads=%u\n", scaling, hw);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
