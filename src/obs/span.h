// Stage-span attribution for getPlan: a GetPlanSpan opens an ambient
// per-thread StageBreakdown for the in-flight decision, StageTimers add
// elapsed microseconds to one stage slot (and, when given one, to a
// per-stage LogHistogram), and the technique's EmitEvent copies the
// ambient breakdown onto the DecisionEvent it records. The disabled path
// (no span open, no histogram attached) costs one thread-local read and a
// null check — no clock read.
//
// Stage taxonomy (the phases a PqoManager-routed getPlan passes through):
//   shard_wait    PqoManager shard-lock acquisition wait
//   svector       selectivity-vector computation (harness/engine side)
//   index_probe   spatial-index range query / nearest-by-GL sweep
//   sel_check     instance-list selectivity-check scan
//   recost        scalar Recost calls (one program each)
//   optimize      full optimizer call on a miss
//   manage_cache  Algorithm 2 bookkeeping (store-or-reuse, eviction)
//   batch_recost  batched recost sweeps (the SIMD bundle's EvalMany
//                 passes)
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics_registry.h"

namespace scrpqo {

enum class Stage : int {
  kShardWait = 0,
  kSVector = 1,
  kIndexProbe = 2,
  kSelCheck = 3,
  kRecost = 4,
  kOptimize = 5,
  kManageCache = 6,
  kBatchRecost = 7,
};
inline constexpr int kNumStages = 8;

/// Stable wire name ("shard_wait", "svector", ...), used both as the JSONL
/// sub-key of the event's "stages" object and as the metric-name fragment
/// of the per-stage histograms ("stage.<name>_micros").
const char* StageName(Stage stage);

/// Per-decision stage latency breakdown; -1 marks a stage that never ran.
struct StageBreakdown {
  int64_t micros[kNumStages] = {-1, -1, -1, -1, -1, -1, -1, -1};

  bool any() const {
    for (int64_t v : micros) {
      if (v >= 0) return true;
    }
    return false;
  }

  /// Accumulates (a stage may run more than once per decision, e.g. the
  /// recost sweep of a failed reuse attempt plus the redundancy check).
  void Add(Stage stage, int64_t us) {
    int64_t& slot = micros[static_cast<int>(stage)];
    slot = slot < 0 ? us : slot + us;
  }

  int64_t get(Stage stage) const {
    return micros[static_cast<int>(stage)];
  }
};

/// Ambient per-thread breakdown of the in-flight getPlan. Deliberately a
/// raw pointer into the opening GetPlanSpan's frame: spans never outlive
/// the call that opened them.
class SpanContext {
 public:
  static StageBreakdown* Current() { return current_; }

 private:
  friend class GetPlanSpan;
  static thread_local StageBreakdown* current_;
};

/// Opens an ambient StageBreakdown for the current thread. Nested opens
/// are no-ops (the outermost span owns the breakdown), so PqoManager can
/// open one around the whole routing path while Scr::TryReuse opens its
/// own when called standalone.
class GetPlanSpan {
 public:
  explicit GetPlanSpan(bool enabled) {
    if (!enabled || SpanContext::current_ != nullptr) return;
    active_ = true;
    SpanContext::current_ = &local_;
  }

  GetPlanSpan(const GetPlanSpan&) = delete;
  GetPlanSpan& operator=(const GetPlanSpan&) = delete;

  ~GetPlanSpan() {
    if (active_) SpanContext::current_ = nullptr;
  }

  /// The breakdown collected so far (valid only while this span is the
  /// active one). Used to forward a failed reuse attempt's stages to a
  /// deferred (worker-thread) manageCache event.
  const StageBreakdown& breakdown() const { return local_; }

  /// Pre-seeds stages measured elsewhere (e.g. the critical-path optimize
  /// time forwarded into AsyncScr's worker-side event).
  void Seed(const StageBreakdown& from) {
    if (!active_) return;
    for (int i = 0; i < kNumStages; ++i) {
      if (from.micros[i] >= 0) {
        local_.Add(static_cast<Stage>(i), from.micros[i]);
      }
    }
  }

 private:
  StageBreakdown local_;
  bool active_ = false;
};

/// RAII stage timer: on Stop (or destruction) adds the elapsed micros to
/// the ambient breakdown slot and to `histogram` (either may be absent).
/// With neither attached, no clock is read.
class StageTimer {
 public:
  StageTimer(Stage stage, LogHistogram* histogram)
      : stage_(stage),
        histogram_(histogram),
        breakdown_(SpanContext::Current()) {
    if (armed()) start_ = std::chrono::steady_clock::now();
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { Stop(); }

  /// Records now instead of at scope exit; idempotent.
  void Stop() {
    if (!armed()) return;
    int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    if (breakdown_ != nullptr) breakdown_->Add(stage_, us);
    if (histogram_ != nullptr) {
      histogram_->Record(static_cast<double>(us));
    }
    breakdown_ = nullptr;
    histogram_ = nullptr;
  }

 private:
  bool armed() const {
    return breakdown_ != nullptr || histogram_ != nullptr;
  }

  Stage stage_;
  LogHistogram* histogram_;
  StageBreakdown* breakdown_;
  std::chrono::steady_clock::time_point start_;
};

/// Cached per-stage histogram pointers ("stage.<name>_micros"), resolved
/// once at SetObs time so hot paths never do a string-keyed lookup.
struct StageHistograms {
  LogHistogram* h[kNumStages] = {};

  static StageHistograms FromRegistry(MetricsRegistry* metrics);

  LogHistogram* operator[](Stage stage) const {
    return h[static_cast<int>(stage)];
  }

  void Reset() {
    for (LogHistogram*& hist : h) hist = nullptr;
  }
};

}  // namespace scrpqo
