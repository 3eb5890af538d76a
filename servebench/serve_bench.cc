// End-to-end serving benchmark: one closed-loop process that drives the
// real request path (bind -> ComputeSelectivityVector -> PqoManager
// getPlan -> manageCache) on freshly generated parameter sets, prints the
// end-to-end metrics of one workload, and checks the served plans.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates untraced
// and traced epochs, records spans around the calls into each layer for a
// sample of the traced requests, and prints the per-layer metrics plus
// trace_overhead (untraced / traced qps). The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// process exits non-zero when any correctness check fails.
//
// A run is a sequence of measuring epochs. Before each epoch every client
// gets a batch of never-served parameter sets, generated off the clock;
// during the epoch each client serves its batch until the epoch's
// deadline; after it the cache is flushed (FlushAll), also off the clock.
// qps counts requests over the summed epoch time.

#include <algorithm>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "optimizer/optimizer.h"
#include "pqo/pqo_manager.h"
#include "query/query_instance.h"
#include "span_trace.h"
#include "verify/online_auditor.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace servebench {
namespace {

using scrpqo::BenchmarkDb;
using scrpqo::BoundTemplate;
using scrpqo::EngineContext;
using scrpqo::OptimizationResult;
using scrpqo::Optimizer;
using scrpqo::PlanChoice;
using scrpqo::PqoManager;
using scrpqo::QueryInstance;
using scrpqo::Value;
using scrpqo::WorkloadInstance;

constexpr double kLambda = 2.0;
constexpr double kEpochSeconds = 0.25;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Requests served (tc_ratio) and traced (spans) per run, spread evenly
/// over the epochs that take them.
constexpr int64_t kTcSamples = 4000;
constexpr int64_t kTracedRequests = 120000;
/// Fixed-length request sequences of the determinism replay and of the
/// audited phase that follows the window of a traced run.
constexpr int64_t kReplayRequests = 6000;
constexpr int64_t kAuditRequests = 20000;
/// opt_rate is the paper's numOpt per request over a fixed-length sequence
/// from a cold cache: the warm-up plus this many requests of the window.
/// Once warm, fewer than one request in 1e4 misses on warm_fresh and
/// concurrent_rw, too rare to give a steady rate in a window of seconds; a
/// fixed length also keeps opt_rate from moving with qps.
constexpr int64_t kOptRateWindowRequests = 100000;

struct WorkloadSpec {
  const char* name;
  int clients;
  int num_templates;
  std::vector<int> dims;  // cycled over the templates
  double zipf_theta;      // template popularity; 0 = uniform
  bool use_async;
  int64_t plan_budget;  // PqoManagerOptions::global_plan_budget; 0 = none
  bool attach_obs;      // MetricsRegistry + RingTracer + OnlineAuditor
  int64_t warmup_requests;
};

// Why each workload exists is recorded in README.md next to this file.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"warm_fresh", 1, 16, {2, 3, 4}, 1.0, true, 0, false, 10000},
      {"churn_budget", 1, 16, {6, 7, 8}, 0.0, false, 48, false, 12000},
      {"concurrent_rw", 3, 4, {2, 3, 4}, 0.0, true, 0, true, 12000},
  };
  return specs;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 finalizer over a combined word.
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e5f5ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stream ids of the seeded inputs of one run. The warm-up is the same for
// every seed, so each run starts from the same warm cache and the seed
// decides the measured traffic: the tail latency of a warm cache depends
// on which instances its warm-up happened to store, and that choice would
// otherwise make up most of the spread between seeds.
constexpr uint64_t kWarmupSeed = 0;
constexpr uint64_t kWarmupStream = 1;
constexpr uint64_t kReplayStream = 2;
constexpr uint64_t kAuditStream = 3;
constexpr uint64_t kEpochStream = 16;

// ---------------------------------------------------------------- server

/// One fully set-up serving process: database and statistics, optimizer,
/// engine, template fleet, and the PqoManager (with the program's own
/// observability when the workload attaches it).
struct Server {
  explicit Server(const WorkloadSpec& spec) {
    db = std::make_unique<BenchmarkDb>(scrpqo::BuildRd2(scrpqo::SchemaScale{}));
    optimizer = std::make_unique<Optimizer>(&db->db);
    engine = std::make_unique<EngineContext>(&db->db, optimizer.get());
    std::map<int, size_t> shape_of_dim;
    for (int d : spec.dims) {
      if (shape_of_dim.count(d) != 0) continue;
      shape_of_dim[d] = shapes.size();
      shapes.push_back(scrpqo::BuildRd2TemplateWithDimensions(*db, d));
    }
    for (int t = 0; t < spec.num_templates; ++t) {
      const int d = spec.dims[static_cast<size_t>(t) % spec.dims.size()];
      shape.push_back(shape_of_dim[d]);
      keys.push_back("rd2_t" + std::to_string(t) + "_d" + std::to_string(d));
    }
    scrpqo::PqoManagerOptions opts;
    opts.default_lambda = kLambda;
    opts.use_async = spec.use_async;
    opts.global_plan_budget = spec.plan_budget;
    manager = std::make_unique<PqoManager>(opts);
    if (spec.attach_obs) AttachObs();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches a MetricsRegistry and a RingTracer feeding an OnlineAuditor
  /// to the manager and the engine, as a production deployment would.
  void AttachObs() {
    registry = std::make_unique<scrpqo::MetricsRegistry>();
    tracer = std::make_unique<scrpqo::RingTracer>();
    scrpqo::OnlineAuditorOptions aopts;
    aopts.config.lambda = kLambda;
    aopts.metrics = registry.get();
    auditor = std::make_shared<scrpqo::OnlineAuditor>(aopts);
    tracer->AddSink(auditor);
    manager->SetObs(scrpqo::ObsHooks{tracer.get(), registry.get()});
    engine->SetObs(registry.get());
  }

  const BoundTemplate& Bound(int t) const {
    return shapes[shape[static_cast<size_t>(t)]];
  }
  int64_t Counter(const char* name) const {
    return registry == nullptr ? 0 : registry->counter(name)->value();
  }

  std::unique_ptr<BenchmarkDb> db;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<EngineContext> engine;
  std::vector<BoundTemplate> shapes;  // one per distinct dimensionality
  std::vector<size_t> shape;          // per template: index into shapes
  std::vector<std::string> keys;      // per template
  // Declared before the manager, which holds raw pointers to them and is
  // destroyed (joining its AsyncScr workers) first.
  std::unique_ptr<scrpqo::MetricsRegistry> registry;
  std::shared_ptr<scrpqo::OnlineAuditor> auditor;
  std::unique_ptr<scrpqo::RingTracer> tracer;
  std::unique_ptr<PqoManager> manager;
};

// ----------------------------------------------------------------- inputs

/// Parameter sets of one client for one epoch, laid out flat. Generated
/// before the epoch; the request loop only reads it.
struct Batch {
  std::vector<uint16_t> tmpl;
  std::vector<uint32_t> offset;  // first parameter of request i in params
  std::vector<Value> params;
  std::vector<uint64_t> hash;  // fingerprint of (template, parameter set)

  size_t size() const { return tmpl.size(); }
};

uint64_t Fingerprint(int t, const Value* params, size_t d) {
  uint64_t h = 1469598103934665603ULL ^ static_cast<uint64_t>(t);
  for (const Value& v : std::span<const Value>(params, d)) {
    uint64_t bits = 0;
    if (v.is_int64()) {
      bits = static_cast<uint64_t>(v.int64());
    } else {
      const double x = v.AsDouble();
      std::memcpy(&bits, &x, sizeof(bits));
      bits ^= 0x5555555555555555ULL;
    }
    h = Mix(h, bits);
  }
  return h;
}

/// `n` requests: Zipf (or uniform) template choice, then per template a
/// region-bucketized set of fresh parameter sets from GenerateInstances,
/// generated by up to `threads` threads. The generator's precomputed
/// sVectors are discarded, so the request path computes every sVector
/// itself.
Batch MakeBatch(const Server& s, const WorkloadSpec& spec, uint64_t seed,
                size_t n, int threads) {
  scrpqo::Pcg32 rng(seed);
  scrpqo::ZipfSampler zipf(spec.num_templates, spec.zipf_theta);
  const size_t num_templates = static_cast<size_t>(spec.num_templates);
  Batch b;
  b.tmpl.resize(n);
  std::vector<int> count(num_templates, 0);
  for (size_t i = 0; i < n; ++i) {
    b.tmpl[i] = static_cast<uint16_t>(zipf.Sample(&rng));
    ++count[b.tmpl[i]];
  }
  // Template t's parameter sets fill params[region[t], region[t + 1]).
  std::vector<size_t> region(num_templates + 1, 0);
  for (size_t t = 0; t < num_templates; ++t) {
    const int d = s.Bound(static_cast<int>(t)).tmpl->dimensions();
    region[t + 1] = region[t] + static_cast<size_t>(count[t] * d);
  }
  b.params.resize(region.back());
  // Chunked, so the generator's full WorkloadInstances never pile up; the
  // chunk seeds do not depend on the thread count.
  auto generate = [&](size_t first_template) {
    constexpr int kChunk = 4096;
    for (size_t t = first_template; t < num_templates;
         t += static_cast<size_t>(threads)) {
      size_t at = region[t];
      for (int done = 0, chunk = 0; done < count[t]; ++chunk) {
        scrpqo::InstanceGenOptions gen;
        gen.m = std::min(kChunk, count[t] - done);
        gen.seed = Mix(Mix(seed, t), static_cast<uint64_t>(chunk));
        for (const WorkloadInstance& wi :
             scrpqo::GenerateInstances(s.Bound(static_cast<int>(t)), gen)) {
          for (const Value& v : wi.instance.params()) b.params[at++] = v;
        }
        done += gen.m;
      }
    }
  };
  std::vector<std::thread> workers;
  for (int w = 1; w < threads; ++w) {
    workers.emplace_back(generate, static_cast<size_t>(w));
  }
  generate(0);
  for (std::thread& w : workers) w.join();

  std::vector<size_t> next(region.begin(), region.end() - 1);
  b.offset.resize(n);
  b.hash.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t t = b.tmpl[i];
    const size_t d = static_cast<size_t>(
        s.Bound(static_cast<int>(t)).tmpl->dimensions());
    b.offset[i] = static_cast<uint32_t>(next[t]);
    b.hash[i] = Fingerprint(static_cast<int>(t), b.params.data() + next[t], d);
    next[t] += d;
  }
  return b;
}

/// Input generation runs off the clock, on up to four threads.
int GeneratorThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

// ----------------------------------------------------------------- client

enum Outcome : uint8_t { kSelHit, kCostHit, kMiss, kFailed };

struct Counts {
  int64_t requests = 0;
  int64_t outcome[4] = {0, 0, 0, 0};
  /// Requests whose getPlan ran the cost check (had candidates), the
  /// candidates it considered and the recosts it made.
  int64_t cost_checked = 0;
  int64_t candidates = 0;
  int64_t recosts = 0;
  /// Non-degraded decisions that came back without a plan (a defect).
  int64_t planless = 0;

  void Add(const Counts& o) {
    requests += o.requests;
    for (int i = 0; i < 4; ++i) outcome[i] += o.outcome[i];
    cost_checked += o.cost_checked;
    candidates += o.candidates;
    recosts += o.recosts;
    planless += o.planless;
  }
};

/// A served request kept for the plan-quality evaluation after the window.
struct TcSample {
  int tmpl = 0;
  std::vector<Value> params;
  std::shared_ptr<const scrpqo::CachedPlan> plan;
};

/// What one client does in one epoch. Written by the coordinator between
/// epochs, read by the client during one.
struct EpochPlan {
  const Batch* batch = nullptr;
  int64_t deadline_ns = std::numeric_limits<int64_t>::max();
  int64_t max_requests = std::numeric_limits<int64_t>::max();
  int64_t tc_stride = 0;     // 0 = take no plan-quality samples
  int64_t trace_stride = 0;  // 0 = trace no request
};

struct Client {
  int index = 0;
  int clients = 1;
  /// Requests served since the window opened; the request id of spans and
  /// the index into `latency_ns` / `outcome`.
  int64_t seq = 0;
  std::vector<uint32_t> latency_ns;
  std::vector<uint8_t> outcome;
  Counts epoch;  // this epoch's counts, folded in by the coordinator
  int64_t served_in_epoch = 0;
  /// Index into latency_ns / outcome where each epoch starts.
  std::vector<size_t> epoch_begin;
  std::vector<TcSample> tc;
  SpanBuffer spans;
  EpochPlan plan;
};

/// Serves the client's batch (wrapping when it runs out) until the epoch's
/// deadline or request cap. Each request is timed from bind through
/// getPlan; traced requests also record a span per layer call.
void Serve(Server& s, Client& c, bool record) {
  const Batch& batch = *c.plan.batch;
  const scrpqo::Database& db = s.db->db;
  c.epoch = Counts{};
  int64_t i = 0;
  for (;;) {
    const size_t k = static_cast<size_t>(i) % batch.size();
    const int t = batch.tmpl[k];
    const scrpqo::QueryTemplate* tmpl = s.Bound(t).tmpl.get();
    const Value* first = batch.params.data() + batch.offset[k];
    const bool traced = c.plan.trace_stride > 0 && i % c.plan.trace_stride == 0;
    if (traced) ActiveSpanBuffer() = &c.spans;
    const int64_t t0 = NowNs();
    PlanChoice choice;
    {
      ScopedSpan root(SpanKind::kRequest, static_cast<uint32_t>(c.seq));
      WorkloadInstance wi;
      wi.id = static_cast<int>((c.seq * c.clients + c.index) & 0x7fffffff);
      {
        ScopedSpan bind(SpanKind::kBind);
        wi.instance = QueryInstance(
            tmpl, std::vector<Value>(first, first + tmpl->dimensions()));
      }
      {
        ScopedSpan sv(SpanKind::kSVector);
        wi.svector = scrpqo::ComputeSelectivityVector(db, wi.instance);
      }
      ScopedSpan gp(SpanKind::kGetPlan);
      choice = s.manager->OnInstance(s.keys[static_cast<size_t>(t)], wi,
                                     s.engine.get());
    }
    const int64_t t1 = NowNs();
    if (traced) ActiveSpanBuffer() = nullptr;

    Outcome o;
    if (choice.degraded || choice.plan == nullptr) {
      o = kFailed;
      if (!choice.degraded) ++c.epoch.planless;
    } else if (choice.optimized) {
      o = kMiss;
    } else if (choice.cost_check_candidates_in_get_plan > 0) {
      o = kCostHit;
    } else {
      o = kSelHit;
    }
    ++c.epoch.requests;
    ++c.epoch.outcome[o];
    if (choice.cost_check_candidates_in_get_plan > 0) {
      ++c.epoch.cost_checked;
      c.epoch.candidates += choice.cost_check_candidates_in_get_plan;
      c.epoch.recosts += choice.recost_calls_in_get_plan;
    }
    if (record) {
      c.latency_ns.push_back(static_cast<uint32_t>(
          std::min<int64_t>(t1 - t0, std::numeric_limits<uint32_t>::max())));
      c.outcome.push_back(o);
      if (c.plan.tc_stride > 0 && o != kFailed &&
          i % c.plan.tc_stride == c.plan.tc_stride / 2) {
        c.tc.push_back(TcSample{
            t, std::vector<Value>(first, first + tmpl->dimensions()),
            choice.plan});
      }
      ++c.seq;
    }
    ++i;
    if (i >= c.plan.max_requests || t1 >= c.plan.deadline_ns) break;
  }
  c.served_in_epoch = i;
}

/// input.repeat_ratio is counted over the parameter sets whose fingerprint
/// falls in one sixteenth of the hash space: a repeat lands in the same
/// sixteenth as its first serving, so the count stays exact for that
/// subset while the run keeps a sixteenth of the fingerprints.
bool RepeatSampled(uint64_t fingerprint) { return (fingerprint >> 60) == 0; }

/// Serves `n` requests of `stream` on the calling thread, then flushes.
/// Appends the sampled fingerprints of the served parameter sets to
/// `served` and the serving time (without input generation) to `seconds`.
Counts ServeFixed(Server& s, const WorkloadSpec& spec, uint64_t seed,
                  uint64_t stream, int64_t n,
                  std::vector<uint64_t>* served = nullptr,
                  double* seconds = nullptr) {
  Batch batch =
      MakeBatch(s, spec, Mix(seed, stream), static_cast<size_t>(n),
                GeneratorThreads());
  if (served != nullptr) {
    for (uint64_t h : batch.hash) {
      if (RepeatSampled(h)) served->push_back(h);
    }
  }
  Client c;
  c.plan.batch = &batch;
  c.plan.max_requests = n;
  const int64_t t0 = NowNs();
  Serve(s, c, /*record=*/false);
  s.manager->FlushAll();
  if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return c.epoch;
}

// ---------------------------------------------------------------- output

std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Prints a timing metric line and returns its value; an unusable
/// percentile (fewer than kMinBeyond samples beyond it) reads 0.
double TimingLine(const std::string& name, std::vector<uint32_t> samples,
                  double q) {
  Quantile qt = QuantileOf(&samples, q);
  if (qt.ok) {
    std::printf("%-34s %14s ns   (n=%lld, beyond=%lld)\n", name.c_str(),
                Num(qt.value).c_str(), static_cast<long long>(qt.n),
                static_cast<long long>(qt.beyond));
    return qt.value;
  }
  std::printf("%-34s %14s      (n=%lld: fewer than %lld samples beyond)\n",
              name.c_str(), "n/a", static_cast<long long>(qt.n),
              static_cast<long long>(kMinBeyond));
  return 0.0;
}

// ------------------------------------------------------------------- run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <warm_fresh|churn_budget|"
               "concurrent_rw> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <file>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (!(a->seconds > 0 && a->seconds <= 600)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty();
}

struct ReplayCounts {
  int64_t optimizer_calls = 0;
  int64_t evictions = 0;
  int64_t plans_cached = 0;
  bool operator==(const ReplayCounts&) const = default;
};

int Run(const Args& args) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) return Usage();
  const WorkloadSpec& spec = *found;
  const int hw_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::printf("workload %s  seed %llu  seconds %s  trace %d  clients %d  "
              "hw_threads %d\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace ? 1 : 0, spec.clients,
              hw_threads);

  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.push_back(what);
  };

  // ---- setup, kSetups times: DB, stats, templates, manager, warm-up ----
  // The last setup serves the window. For churn_budget the earlier ones
  // replay one fixed request sequence each and must agree exactly.
  std::vector<double> setup_s;
  std::vector<ReplayCounts> replays;
  std::unique_ptr<Server> server;
  Counts warmup;
  double warmup_seconds = 0;
  std::vector<uint64_t> warmup_served;
  // Only a synchronous single-client workload decides deterministically.
  const bool deterministic = !spec.use_async && spec.clients == 1;
  for (int k = 0; k < kSetups; ++k) {
    server.reset();
    const int64_t t0 = NowNs();
    auto s = std::make_unique<Server>(spec);
    warmup_served.clear();
    warmup = ServeFixed(*s, spec, kWarmupSeed, kWarmupStream,
                        spec.warmup_requests, &warmup_served, &warmup_seconds);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (deterministic && k + 1 < kSetups) {
      ServeFixed(*s, spec, args.seed, kReplayStream, kReplayRequests);
      replays.push_back(ReplayCounts{s->engine->num_optimizer_calls(),
                                     s->manager->global_evictions(),
                                     s->manager->TotalPlansCached()});
      if (spec.plan_budget > 0) {
        check(replays.back().plans_cached <= spec.plan_budget,
              "replay plans_cached <= global_plan_budget after FlushAll");
      }
    }
    server = std::move(s);
  }
  Server& s = *server;
  if (replays.size() >= 2) {
    std::printf("replay (warm-up + %lld requests): optimizer.calls %lld  "
                "pqo.cache.evictions %lld  plans_cached %lld\n",
                static_cast<long long>(kReplayRequests),
                static_cast<long long>(replays[0].optimizer_calls),
                static_cast<long long>(replays[0].evictions),
                static_cast<long long>(replays[0].plans_cached));
    check(replays[0] == replays[1],
          "replay repeats optimizer.calls, evictions, plans_cached");
  }
  if (args.trace) {
    // Spans for the optimizer layer come from the same call the engine
    // makes itself, wrapped so a traced request sees it as a child span.
    const Optimizer* opt = s.optimizer.get();
    s.engine->SetOracle([opt](const WorkloadInstance& wi) {
      ScopedSpan span(SpanKind::kOptimize);
      return std::make_shared<OptimizationResult>(
          opt->OptimizeWithSVector(wi.instance, wi.svector));
    });
  }

  // ---- measuring window ----
  const int num_epochs =
      std::max(args.trace ? 2 : 1,
               static_cast<int>(std::lround(args.seconds / kEpochSeconds)));
  const int64_t epoch_ns =
      static_cast<int64_t>(args.seconds / num_epochs * 1e9);
  const int traced_epochs = args.trace ? num_epochs / 2 : 0;

  std::vector<Client> clients(static_cast<size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    clients[static_cast<size_t>(c)].index = c;
    clients[static_cast<size_t>(c)].clients = spec.clients;
    if (args.trace) {
      clients[static_cast<size_t>(c)].spans.Reserve(static_cast<size_t>(
          6 * kTracedRequests / spec.clients + 1024));
    }
  }
  SpanBuffer flush_spans;
  std::vector<Batch> batches(static_cast<size_t>(spec.clients));

  bool stop = false;
  std::barrier sync(spec.clients + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        Serve(s, clients[static_cast<size_t>(c)], /*record=*/true);
        sync.arrive_and_wait();
      }
    });
  }

  Counts phase[2];           // [0] untraced epochs, [1] traced epochs
  double phase_seconds[2] = {0, 0};
  // End-to-end figures are medians over epochs, which keeps a burst of
  // load from elsewhere on the host to the epochs it hit.
  std::vector<double> epoch_qps[2];
  std::vector<uint64_t> window_served;  // sampled fingerprints, in order
  const int64_t optimizer_calls0 = s.engine->num_optimizer_calls();
  const int64_t recost_calls0 = s.engine->num_recost_calls();
  const int64_t evictions0 = s.manager->global_evictions();
  const int64_t plans0 = s.manager->TotalPlansCached();
  const int64_t lock_shared0 = s.Counter("async_scr.lock_shared");
  const int64_t lock_exclusive0 = s.Counter("async_scr.lock_exclusive");
  const int64_t events0 = s.tracer ? s.tracer->total_recorded() : 0;
  const int64_t drops0 = s.tracer ? s.tracer->dropped() : 0;

  // Per-client requests one epoch is expected to serve: first three times
  // the warm-up's rate (which its misses slow down), then what the last
  // epochs served. A batch holds 1.5x that, so the loop rarely wraps onto
  // parameter sets it already served.
  int64_t expect = std::clamp<int64_t>(
      static_cast<int64_t>(3 * static_cast<double>(warmup.requests) /
                           std::max(warmup_seconds, 1e-3) * kEpochSeconds),
      10000, 200000);
  int64_t last_served[2] = {0, 0};
  const int64_t origin_ns = NowNs();
  for (int e = 0; e < num_epochs; ++e) {
    const bool traced = args.trace && e % 2 == 1;
    const size_t batch_n = static_cast<size_t>(expect * 3 / 2 + 1000);
    {
      std::vector<std::thread> gen;
      const int per_client = std::max(1, GeneratorThreads() / spec.clients);
      for (int c = 0; c < spec.clients; ++c) {
        gen.emplace_back([&, c] {
          batches[static_cast<size_t>(c)] = MakeBatch(
              s, spec, Mix(Mix(args.seed, kEpochStream + e), c), batch_n,
              per_client);
        });
      }
      for (std::thread& g : gen) g.join();
    }
    const int64_t bn = static_cast<int64_t>(batch_n);
    for (Client& c : clients) {
      c.plan = EpochPlan{};
      c.plan.batch = &batches[static_cast<size_t>(c.index)];
      if (!args.trace) {
        c.plan.tc_stride = std::max<int64_t>(
            1, bn * num_epochs * spec.clients / kTcSamples);
      }
      if (traced) {
        c.plan.trace_stride = std::max<int64_t>(
            1, bn * traced_epochs * spec.clients / kTracedRequests);
      }
      c.epoch_begin.push_back(c.latency_ns.size());
      // Grow the sample vectors here, not in the middle of the epoch.
      const size_t want = c.latency_ns.size() + batch_n;
      if (c.latency_ns.capacity() < want) {
        c.latency_ns.reserve(std::max(want, 2 * c.latency_ns.capacity()));
        c.outcome.reserve(c.latency_ns.capacity());
      }
    }
    const int64_t start = NowNs();
    for (Client& c : clients) c.plan.deadline_ns = start + epoch_ns;
    sync.arrive_and_wait();  // clients start
    sync.arrive_and_wait();  // clients done
    const int64_t end = NowNs();
    phase_seconds[traced ? 1 : 0] += static_cast<double>(end - start) * 1e-9;

    int64_t most = 0;
    int64_t served = 0;
    for (Client& c : clients) {
      served += c.served_in_epoch;
      phase[traced ? 1 : 0].Add(c.epoch);
      most = std::max(most, c.served_in_epoch);
      const Batch& b = batches[static_cast<size_t>(c.index)];
      for (int64_t i = 0; i < c.served_in_epoch; ++i) {
        const uint64_t h = b.hash[static_cast<size_t>(i) % b.size()];
        if (RepeatSampled(h)) window_served.push_back(h);
      }
    }
    epoch_qps[traced ? 1 : 0].push_back(static_cast<double>(served) /
                                        (static_cast<double>(end - start) *
                                         1e-9));
    last_served[traced ? 1 : 0] = most;
    expect = std::max(last_served[0], last_served[1]);

    if (args.trace) ActiveSpanBuffer() = &flush_spans;
    {
      ScopedSpan flush(SpanKind::kFlush);
      s.manager->FlushAll();
    }
    ActiveSpanBuffer() = nullptr;
  }
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  batches.clear();

  Counts all = phase[0];
  all.Add(phase[1]);
  const int64_t optimizer_calls =
      s.engine->num_optimizer_calls() - optimizer_calls0;
  const int64_t recost_calls = s.engine->num_recost_calls() - recost_calls0;
  const int64_t evictions = s.manager->global_evictions() - evictions0;
  const int64_t plans_cached = s.manager->TotalPlansCached();
  const int64_t cache_bytes = s.manager->TotalMemoryBytes();
  // Window-only counter deltas; a workload without a registry in its
  // window takes its lock counts from the audited phase below instead.
  double lock_shared = Ratio(
      static_cast<double>(s.Counter("async_scr.lock_shared") - lock_shared0),
      static_cast<double>(all.requests));
  double lock_exclusive =
      Ratio(static_cast<double>(s.Counter("async_scr.lock_exclusive") -
                                lock_exclusive0),
            static_cast<double>(all.requests));
  const double events_per_request = Ratio(
      static_cast<double>(s.tracer ? s.tracer->total_recorded() - events0 : 0),
      static_cast<double>(all.requests));
  const int64_t ring_drops = s.tracer ? s.tracer->dropped() - drops0 : 0;

  // A request repeats when its parameter set was served before, in the
  // warm-up or earlier in the window.
  std::sort(warmup_served.begin(), warmup_served.end());
  const int64_t warmup_distinct =
      std::unique(warmup_served.begin(), warmup_served.end()) -
      warmup_served.begin();
  warmup_served.resize(static_cast<size_t>(warmup_distinct));
  const int64_t window_n = static_cast<int64_t>(window_served.size());
  window_served.insert(window_served.end(), warmup_served.begin(),
                       warmup_served.end());
  std::sort(window_served.begin(), window_served.end());
  const int64_t all_distinct =
      std::unique(window_served.begin(), window_served.end()) -
      window_served.begin();
  const int64_t repeats = window_n - (all_distinct - warmup_distinct);
  std::printf("input.repeat_ratio %s  (%lld of %lld requests sampled by "
              "fingerprint)\n",
              Num(Ratio(static_cast<double>(repeats),
                        static_cast<double>(window_n)))
                  .c_str(),
              static_cast<long long>(repeats),
              static_cast<long long>(window_n));
  std::printf("hw_threads %d\n", hw_threads);
  std::printf("window %s s in %d epochs (%d traced)\n",
              Num(phase_seconds[0] + phase_seconds[1]).c_str(), num_epochs,
              traced_epochs);

  // ---- correctness ----
  if (spec.plan_budget > 0) {
    check(plans_cached <= spec.plan_budget,
          "plans_cached <= global_plan_budget after FlushAll");
  }
  Counts audit;
  if (spec.attach_obs || args.trace) {
    // Workloads that run with obs detached are audited in a phase of
    // their own after the window, so the window's timings stay obs-free.
    if (!spec.attach_obs) {
      s.AttachObs();
      audit = ServeFixed(s, spec, args.seed, kAuditStream, kAuditRequests);
      lock_shared =
          Ratio(static_cast<double>(s.Counter("async_scr.lock_shared")),
                static_cast<double>(audit.requests));
      lock_exclusive =
          Ratio(static_cast<double>(s.Counter("async_scr.lock_exclusive")),
                static_cast<double>(audit.requests));
    }
    s.manager->FlushAll();
    check(s.tracer->Flush().ok(), "RingTracer flush");
    std::printf("online audit: %lld decisions checked, %lld violations, "
                "worst margin %s\n",
                static_cast<long long>(s.auditor->checked()),
                static_cast<long long>(s.auditor->violations()),
                Num(s.auditor->worst_margin()).c_str());
    check(s.auditor->checked() > 0 && s.auditor->violations() == 0,
          "OnlineAuditor: 0 lambda violations among non-degraded decisions");
  }
  // Requests of the audited phase count as attempted too.
  Counts attempted = all;
  attempted.Add(audit);
  check(attempted.planless == 0, "every non-degraded request got a plan");
  const int64_t failed = attempted.outcome[kFailed];
  std::printf("fail_rate %s  (%lld failed of %lld attempted)\n",
              Num(Ratio(static_cast<double>(failed),
                        static_cast<double>(attempted.requests)))
                  .c_str(),
              static_cast<long long>(failed),
              static_cast<long long>(attempted.requests));

  std::vector<Metric> metrics;
  bool samples_ok = true;
  const double n = static_cast<double>(all.requests);
  if (!args.trace) {
    // ---- end-to-end ----
    const double setup_median = Median(setup_s);
    std::printf("%-34s %14s s    (n=%zu setups, median)\n", "setup_s",
                Num(setup_median).c_str(), setup_s.size());
    const double qps = Median(epoch_qps[0]);
    std::printf("%-34s %14s 1/s  (median of %zu epochs; n=%lld requests)\n",
                "qps", Num(qps).c_str(), epoch_qps[0].size(),
                static_cast<long long>(all.requests));
    metrics.push_back({"setup_s", setup_median, "s"});
    metrics.push_back({"qps", qps, "1/s"});
    // Per-epoch percentiles of every request / of the requests served
    // from cache, reported as their median over the epochs.
    auto epoch_timing = [&](const char* name, double q, bool reuse_only) {
      std::vector<double> per_epoch;
      int64_t total = 0;
      int64_t fewest_beyond = std::numeric_limits<int64_t>::max();
      for (size_t e = 0; e < static_cast<size_t>(num_epochs); ++e) {
        std::vector<uint32_t> v;
        for (const Client& c : clients) {
          const size_t lo = c.epoch_begin[e];
          const size_t hi = e + 1 < c.epoch_begin.size()
                                ? c.epoch_begin[e + 1]
                                : c.latency_ns.size();
          for (size_t i = lo; i < hi; ++i) {
            if (!reuse_only || c.outcome[i] == kSelHit ||
                c.outcome[i] == kCostHit) {
              v.push_back(c.latency_ns[i]);
            }
          }
        }
        total += static_cast<int64_t>(v.size());
        Quantile qt = QuantileOf(&v, q);
        if (!qt.ok) continue;
        per_epoch.push_back(qt.value);
        fewest_beyond = std::min(fewest_beyond, qt.beyond);
      }
      // Most epochs must give a usable percentile of their own.
      if (per_epoch.size() * 2 <= static_cast<size_t>(num_epochs)) {
        std::printf("%-34s %14s      (n=%lld: fewer than %lld samples "
                    "beyond in most epochs)\n",
                    name, "n/a", static_cast<long long>(total),
                    static_cast<long long>(kMinBeyond));
        samples_ok = false;
        metrics.push_back({name, 0.0, "ns"});
        return;
      }
      const double value = Median(per_epoch);
      std::printf("%-34s %14s ns   (median of %zu epochs; n=%lld, >= %lld "
                  "beyond per epoch)\n",
                  name, Num(value).c_str(), per_epoch.size(),
                  static_cast<long long>(total),
                  static_cast<long long>(fewest_beyond));
      metrics.push_back({name, value, "ns"});
    };
    epoch_timing("req_p50_ns", 0.50, false);
    epoch_timing("req_p99_ns", 0.99, false);
    epoch_timing("reuse_p50_ns", 0.50, true);
    epoch_timing("reuse_p99_ns", 0.99, true);
    int64_t opt_n = warmup.requests;
    int64_t opt_misses = warmup.outcome[kMiss];
    for (const Client& c : clients) {
      const size_t take = std::min(
          c.outcome.size(),
          static_cast<size_t>(kOptRateWindowRequests / spec.clients));
      opt_n += static_cast<int64_t>(take);
      opt_misses += std::count(c.outcome.begin(),
                               c.outcome.begin() + static_cast<long>(take),
                               uint8_t{kMiss});
    }
    const double opt_rate = Ratio(static_cast<double>(opt_misses),
                                  static_cast<double>(opt_n));
    std::printf("%-34s %14s      (%lld optimizer calls / first %lld "
                "requests from cold; window alone: %lld / %lld)\n",
                "opt_rate", Num(opt_rate).c_str(),
                static_cast<long long>(opt_misses),
                static_cast<long long>(opt_n),
                static_cast<long long>(all.outcome[kMiss]),
                static_cast<long long>(all.requests));
    metrics.push_back({"opt_rate", opt_rate, "ratio"});

    // Plan quality (the paper's TC) over the seeded sample, uncharged.
    double chosen_sum = 0;
    double optimal_sum = 0;
    int64_t over_lambda = 0;
    int64_t below_optimal = 0;
    int64_t tc_n = 0;
    for (const Client& c : clients) {
      for (const TcSample& t : c.tc) {
        QueryInstance qi(s.Bound(t.tmpl).tmpl.get(), t.params);
        const scrpqo::SVector sv =
            scrpqo::ComputeSelectivityVector(s.db->db, qi);
        const double chosen = s.engine->RecostUncharged(*t.plan, sv);
        const double optimal = s.optimizer->OptimizeWithSVector(qi, sv).cost;
        chosen_sum += chosen;
        optimal_sum += optimal;
        if (chosen > kLambda * optimal * (1 + 1e-9)) ++over_lambda;
        if (chosen < optimal * (1 - 1e-9)) ++below_optimal;
        ++tc_n;
      }
    }
    const double tc_ratio = Ratio(chosen_sum, optimal_sum);
    std::printf("%-34s %14s      (n=%lld sampled requests; %lld above "
                "lambda x optimal)\n",
                "tc_ratio", Num(tc_ratio).c_str(),
                static_cast<long long>(tc_n),
                static_cast<long long>(over_lambda));
    check(tc_n > 0 && below_optimal == 0,
          "sampled plans cost no less than the optimizer's plan");
    metrics.push_back({"tc_ratio", tc_ratio, "ratio"});
    std::printf("%-34s %14lld\n", "plans_cached",
                static_cast<long long>(plans_cached));
    metrics.push_back(
        {"plans_cached", static_cast<double>(plans_cached), "count"});
    std::printf("%-34s %14lld B\n", "cache_bytes",
                static_cast<long long>(cache_bytes));
    metrics.push_back(
        {"cache_bytes", static_cast<double>(cache_bytes), "B"});
  } else {
    // ---- per layer, from the spans of the traced epochs ----
    std::vector<uint32_t> dur[kNumSpanKinds];
    double self_total[kNumSpanKinds] = {};
    std::vector<uint32_t> sel_hit_ns;
    std::vector<uint32_t> cost_hit_ns;
    std::vector<uint32_t> miss_self_ns;
    std::vector<double> client_p99;
    auto clamp32 = [](int64_t v) {
      return static_cast<uint32_t>(
          std::clamp<int64_t>(v, 0, std::numeric_limits<uint32_t>::max()));
    };
    for (const Client& c : clients) {
      const std::vector<Span>& spans = c.spans.spans();
      const std::vector<int64_t> self = SelfTimes(spans);
      std::vector<uint32_t> mine;
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& sp = spans[i];
        const int kind = static_cast<int>(sp.kind);
        const uint32_t d = clamp32(sp.end_ns - sp.start_ns);
        dur[kind].push_back(d);
        self_total[kind] += static_cast<double>(self[i]);
        if (sp.kind != SpanKind::kGetPlan) continue;
        mine.push_back(d);
        const uint8_t o = c.outcome[sp.request];
        if (o == kSelHit) sel_hit_ns.push_back(d);
        if (o == kCostHit) cost_hit_ns.push_back(d);
        if (o == kMiss) miss_self_ns.push_back(clamp32(self[i]));
      }
      Quantile q = QuantileOf(&mine, 0.99);
      client_p99.push_back(q.ok ? q.value : 0.0);
    }
    for (const Span& sp : flush_spans.spans()) {
      dur[static_cast<int>(SpanKind::kFlush)].push_back(
          clamp32(sp.end_ns - sp.start_ns));
    }
    const double root_total =
        std::max(1.0, self_total[static_cast<int>(SpanKind::kRequest)] +
                          self_total[static_cast<int>(SpanKind::kBind)] +
                          self_total[static_cast<int>(SpanKind::kSVector)] +
                          self_total[static_cast<int>(SpanKind::kGetPlan)] +
                          self_total[static_cast<int>(SpanKind::kOptimize)]);
    auto share = [&](SpanKind k) {
      return self_total[static_cast<int>(k)] / root_total;
    };
    auto timing = [&](const std::string& name, std::vector<uint32_t> v,
                      double q) {
      metrics.push_back({name, TimingLine(name, std::move(v), q), "ns"});
    };
    auto value = [&](const std::string& name, double v, const char* unit) {
      std::printf("%-34s %14s %s\n", name.c_str(), Num(v).c_str(), unit);
      metrics.push_back({name, v, unit});
    };
    auto d = [&](SpanKind k) { return dur[static_cast<int>(k)]; };
    std::printf("traced requests %zu (spans %zu)\n",
                d(SpanKind::kRequest).size(),
                [&] {
                  size_t t = 0;
                  for (const Client& c : clients) t += c.spans.spans().size();
                  return t;
                }());
    timing("query.bind_ns.p50", d(SpanKind::kBind), 0.50);
    timing("query.svector_ns.p50", d(SpanKind::kSVector), 0.50);
    timing("query.svector_ns.p99", d(SpanKind::kSVector), 0.99);
    value("query.svector_share", share(SpanKind::kSVector), "ratio");
    auto mix = [&](Outcome o) {
      return Ratio(static_cast<double>(all.outcome[o]), n);
    };
    value("pqo.sel_hit_ratio", mix(kSelHit), "ratio");
    value("pqo.cost_hit_ratio", mix(kCostHit), "ratio");
    value("pqo.miss_ratio", mix(kMiss), "ratio");
    timing("pqo.getplan_ns.p50", d(SpanKind::kGetPlan), 0.50);
    timing("pqo.getplan_ns.p99", d(SpanKind::kGetPlan), 0.99);
    timing("pqo.sel_hit_ns.p50", sel_hit_ns, 0.50);
    timing("pqo.cost_hit_ns.p50", cost_hit_ns, 0.50);
    timing("pqo.cost_hit_ns.p99", cost_hit_ns, 0.99);
    value("pqo.share", share(SpanKind::kGetPlan), "ratio");
    const double checked = static_cast<double>(all.cost_checked);
    value("pqo.candidates_per_cost_check",
          Ratio(static_cast<double>(all.candidates), checked), "count");
    value("pqo.recost_per_cost_check",
          Ratio(static_cast<double>(all.recosts), checked), "count");
    value("pqo.cost_check_success",
          Ratio(static_cast<double>(all.outcome[kCostHit]), checked),
          "ratio");
    value("optimizer.recost_calls", static_cast<double>(recost_calls),
          "count");
    value("optimizer.calls", static_cast<double>(optimizer_calls), "count");
    timing("optimizer.optimize_ns.p50", d(SpanKind::kOptimize), 0.50);
    value("optimizer.share", share(SpanKind::kOptimize), "ratio");
    timing("pqo.miss_self_ns.p50", miss_self_ns, 0.50);
    value("pqo.cache.evictions", static_cast<double>(evictions), "count");
    value("pqo.cache.plans_kept_ratio",
          Ratio(static_cast<double>(plans_cached - plans0 + evictions),
                static_cast<double>(optimizer_calls)),
          "ratio");
    timing("pqo.cache.flush_ns", d(SpanKind::kFlush), 0.50);
    value("pqo.lock_shared", lock_shared, "count");
    value("pqo.lock_exclusive", lock_exclusive, "count");
    value("pqo.getplan_ns.p99_client_max",
          *std::max_element(client_p99.begin(), client_p99.end()), "ns");
    value("pqo.getplan_ns.p99_client_min",
          *std::min_element(client_p99.begin(), client_p99.end()), "ns");
    value("obs.events_per_request", events_per_request, "count");
    value("obs.ring_drops", static_cast<double>(ring_drops), "count");
    const double qps_untraced = Median(epoch_qps[0]);
    const double qps_traced = Median(epoch_qps[1]);
    value("trace_overhead", Ratio(qps_untraced, qps_traced), "ratio");
    if (!args.spans_out.empty()) {
      std::vector<const SpanBuffer*> bufs;
      for (const Client& c : clients) bufs.push_back(&c.spans);
      bufs.push_back(&flush_spans);
      check(WriteSpans(args.spans_out, bufs, origin_ns),
            "spans written to " + args.spans_out);
    }
  }
  if (!samples_ok) {
    std::fprintf(stderr, "servebench: too few samples for an end-to-end "
                         "percentile; run longer\n");
    return 3;
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted.requests);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) return servebench::Usage();
  return servebench::Run(args);
}
