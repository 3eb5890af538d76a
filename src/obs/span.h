// Stage-span attribution for getPlan: a GetPlanSpan opens an ambient
// per-thread SpanState for the in-flight decision, StageTimers add
// elapsed microseconds to one stage slot of its breakdown (and, when
// given one, to a per-stage LogHistogram), and the technique's EmitEvent
// copies the ambient breakdown onto the DecisionEvent it records.
//
// The span owns the decision's clock. Time inside a span is cut at stage
// boundaries, and each boundary reads steady_clock exactly once:
//   - a timer (StageTimer, ScopedTimer) started inside a span starts at
//     the span's latest boundary, reading the clock only if the span has
//     none yet (the first boundary is taken lazily, so a span opened
//     upstream, e.g. by PqoManager, does not bill routing to the first
//     stage);
//   - stopping a timer reads the clock once and makes that reading the
//     new boundary;
//   - EmitEvent's wall time ends at the latest boundary (SpanNow()).
// Work between two boundaries is billed to the stage that ends at the
// second, so stages that do not nest never overlap and never sum past
// the span's wall time. A warm selectivity
// hit reads the clock 3 times (first boundary, sel_check end, getPlan
// end) and a cost hit 4 (plus batch_recost end). Durations are still
// truncated to whole microseconds.
//
// The detached path (no span open, no histogram attached) costs one
// thread-local read and null checks — no clock read.
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

using SpanClock = std::chrono::steady_clock;

/// The in-flight getPlan's state: its stage breakdown and the clock
/// reading at its latest stage boundary.
struct SpanState {
  StageBreakdown stages;
  SpanClock::time_point boundary{};
  bool has_boundary = false;
  /// steady_clock reads taken through this span (tests pin the
  /// per-decision count).
  int clock_reads = 0;

  /// The latest boundary; reads the clock only if there is none yet.
  SpanClock::time_point Mark() {
    if (!has_boundary) Advance();
    return boundary;
  }

  /// Reads the clock once and makes the reading the latest boundary.
  SpanClock::time_point Advance() {
    boundary = SpanClock::now();
    has_boundary = true;
    ++clock_reads;
    return boundary;
  }
};

/// Ambient per-thread span of the in-flight getPlan. Deliberately a raw
/// pointer into the opening GetPlanSpan's frame: spans never outlive the
/// call that opened them.
class SpanContext {
 public:
  static SpanState* State() { return current_; }

  /// The ambient breakdown, or null when no span is open.
  static StageBreakdown* Current() {
    SpanState* state = current_;
    return state != nullptr ? &state->stages : nullptr;
  }

 private:
  friend class GetPlanSpan;
  // constinit: a constant-initialized thread_local is a plain TLS access.
  // Without it the header's accesses go through a lazy-initialization
  // wrapper, which combined ASan+UBSan builds saw return null.
  static inline constinit thread_local SpanState* current_ = nullptr;
};

/// "Now" for a decision event: the ambient span's latest boundary, or a
/// fresh clock read when no span is open.
inline SpanClock::time_point SpanNow() {
  SpanState* state = SpanContext::State();
  return state != nullptr ? state->Mark() : SpanClock::now();
}

/// Whole microseconds from `start` to `end` (truncated).
inline int64_t MicrosBetween(SpanClock::time_point start,
                             SpanClock::time_point end) {
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start)
      .count();
}

/// Opens an ambient SpanState for the current thread. Nested opens are
/// no-ops (the outermost span owns the state), so PqoManager can open one
/// around the whole routing path while Scr::TryReuse opens its own when
/// called standalone. Opening reads no clock.
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
  const StageBreakdown& breakdown() const { return local_.stages; }

  /// Clock reads taken through this span so far.
  int clock_reads() const { return local_.clock_reads; }

  /// Pre-seeds stages measured elsewhere (e.g. the critical-path optimize
  /// time forwarded into AsyncScr's worker-side event).
  void Seed(const StageBreakdown& from) {
    if (!active_) return;
    for (int i = 0; i < kNumStages; ++i) {
      if (from.micros[i] >= 0) {
        local_.stages.Add(static_cast<Stage>(i), from.micros[i]);
      }
    }
  }

 private:
  SpanState local_;
  bool active_ = false;
};

/// Start/stop of one timed section under the boundary rule above: inside
/// `span` both ends are span boundaries; with no span, each end reads the
/// clock. Unarmed it reads nothing.
class SpanInterval {
 public:
  SpanInterval(SpanState* span, bool armed) : span_(span), armed_(armed) {
    if (!armed_) return;
    start_ = span_ != nullptr ? span_->Mark() : SpanClock::now();
  }

  bool armed() const { return armed_; }
  SpanState* span() const { return span_; }

  /// Closes the interval and returns its whole microseconds; disarms.
  /// Requires armed().
  int64_t Close() {
    const SpanClock::time_point end =
        span_ != nullptr ? span_->Advance() : SpanClock::now();
    armed_ = false;
    return MicrosBetween(start_, end);
  }

 private:
  SpanState* span_;
  bool armed_;
  SpanClock::time_point start_;
};

/// RAII stage timer: on Stop (or destruction) adds the elapsed micros to
/// the ambient breakdown slot and to `histogram` (either may be absent).
/// With neither attached, no clock is read.
class StageTimer {
 public:
  StageTimer(Stage stage, LogHistogram* histogram)
      : StageTimer(stage, histogram, SpanContext::State()) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { Stop(); }

  /// Records now instead of at scope exit; idempotent.
  void Stop() {
    if (!interval_.armed()) return;
    const int64_t us = interval_.Close();
    if (SpanState* span = interval_.span()) span->stages.Add(stage_, us);
    if (histogram_ != nullptr) histogram_->Record(static_cast<double>(us));
  }

 private:
  StageTimer(Stage stage, LogHistogram* histogram, SpanState* span)
      : stage_(stage),
        histogram_(histogram),
        interval_(span, span != nullptr || histogram != nullptr) {}

  Stage stage_;
  LogHistogram* histogram_;
  SpanInterval interval_;
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
