// Decision-event tracing for the PQO engine: every getPlan/manageCache
// decision is recorded as a DecisionEvent and can be exported as JSONL
// (one event per line). Techniques emit events only when a Tracer is
// attached, so the disabled-path cost is a null pointer check.
//
// Two capture implementations share the Tracer interface:
//  - Tracer (this file): a single fixed-capacity ring guarded by a mutex.
//    Simple, exact, and the wire-format reference; emitters serialize on
//    the lock, so it is the fallback, not the serving default.
//  - RingTracer (obs/ring_tracer.h): per-thread lock-free SPSC rings
//    drained by a background exporter that merges, stamps sequence
//    numbers, and fans out to pluggable sinks. The serving default.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/span.h"

namespace scrpqo {

/// What the technique concluded for one event.
///
/// The first four plus `kDegraded` are per-instance *decisions* — every
/// instance produces exactly one of them (`kOptimized` and
/// `kRedundantDiscard` both imply an optimizer call; the latter means the
/// redundancy check then discarded the fresh plan in favor of a cached
/// one). `kDegraded` is the failure-handling decision: the optimizer was
/// unavailable (failure, deadline overrun, exhausted retries) and the
/// technique served the best plan it could WITHOUT the lambda guarantee —
/// audits must exclude it from the guaranteed set and report it
/// separately. The rest are meta events emitted on top of the
/// per-instance stream: `kEvicted` per evicted plan, `kAuditAlert` by the
/// online lambda-compliance monitor when a traced decision violates its
/// bound (verify/online_auditor.h), `kRingDropped` by the RingTracer
/// exporter to account for events lost to a full SPSC ring (the `dropped`
/// field carries the count), and `kFaultInjected` recorded once per fired
/// fault-injection point (common/fault_injection.h; the `technique` field
/// carries the point name) so chaos runs are auditable from the JSONL
/// alone.
enum class DecisionOutcome : int {
  kSelCheckHit = 0,
  kCostCheckHit = 1,
  kOptimized = 2,
  kRedundantDiscard = 3,
  kEvicted = 4,
  kAuditAlert = 5,
  kRingDropped = 6,
  kDegraded = 7,
  kFaultInjected = 8,
};

/// Stable wire name ("sel-check-hit", ...).
const char* DecisionOutcomeName(DecisionOutcome outcome);

/// Inverse of DecisionOutcomeName; false when `name` is unknown.
bool ParseDecisionOutcome(const std::string& name, DecisionOutcome* out);

/// True for the per-instance decision outcomes (everything but the meta
/// events kEvicted / kAuditAlert / kRingDropped / kFaultInjected).
bool IsDecisionOutcome(DecisionOutcome outcome);

/// One traced decision. Fields that do not apply to an outcome stay at
/// their defaults (-1 for ids and G/L/R, 0 for counts).
struct DecisionEvent {
  /// Monotonic event number, assigned by the Tracer on Record (RingTracer
  /// assigns it at export time, preserving per-thread emission order).
  int64_t seq = -1;
  /// Workload-instance id the event belongs to.
  int32_t instance_id = -1;
  /// Technique name (Scr::name() style).
  std::string technique;
  /// Template the deciding cache serves (PqoManager's template_key; empty
  /// for single-template runs). Lets one merged trace from a multi-template
  /// manager be audited per template (guarantee_audit --per-template).
  std::string template_key;
  DecisionOutcome outcome = DecisionOutcome::kOptimized;
  /// Cache-entry id that matched (instance-list index for SCR check hits,
  /// plan id for optimized/discard/evict events); -1 when n/a.
  int32_t matched_entry = -1;
  /// Selectivity-check factors at the matched entry (-1 when n/a).
  double g = -1.0;
  double l = -1.0;
  /// Cost ratio observed by the cost / redundancy check (-1 when n/a).
  double r = -1.0;
  /// Sub-optimality S of the matched instance entry at decision time
  /// (-1 when n/a). With g/l/r and lambda this makes every check's
  /// arithmetic statically re-derivable (see verify/guarantee_audit.h).
  double subopt = -1.0;
  /// Effective bound the decision was checked against: lambda for
  /// selectivity/cost-check hits (the Appendix D per-entry value when
  /// dynamic lambda is enabled), lambda_r for redundancy decisions
  /// (-1 when n/a).
  double lambda = -1.0;
  /// Cost-check candidates considered by this getPlan.
  int32_t candidates_scanned = 0;
  /// Recost calls issued by this getPlan.
  int32_t recost_calls = 0;
  /// Wall-clock of the traced section, microseconds.
  int64_t wall_micros = 0;
  /// Events lost to a full SPSC ring since the previous kRingDropped
  /// event; 0 (and absent on the wire) for every other outcome.
  int64_t dropped = 0;
  /// Per-stage latency attribution of the traced getPlan (obs/span.h).
  /// Serialized as an optional "stages" object only when any stage was
  /// timed, so traces from span-free emitters are byte-identical to the
  /// pre-span wire format.
  StageBreakdown stages;
};

/// Serializes one event as a single JSON line (no trailing newline).
std::string DecisionEventToJsonl(const DecisionEvent& event);

/// Parses a line produced by DecisionEventToJsonl. Numeric fields must be
/// finite: NaN/inf cost factors are rejected (same policy as EnvDouble),
/// so a corrupted trace cannot silently pass a guarantee audit.
Result<DecisionEvent> DecisionEventFromJsonl(const std::string& line);

/// Fixed-capacity ring buffer of DecisionEvents guarded by one mutex.
/// Oldest events are overwritten once `capacity` is exceeded;
/// `total_recorded()` keeps the all-time count so overflow is detectable.
/// Also the polymorphic base of RingTracer: ObsHooks carries a Tracer*,
/// and every emitter works against this interface.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);
  virtual ~Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records an event (assigns `seq`), moving it into the ring.
  /// Thread-safe.
  virtual void Record(DecisionEvent&& event) EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }

  /// All-time number of events captured (>= Snapshot().size()). For the
  /// RingTracer this counts exported events; add dropped() for attempts.
  virtual int64_t total_recorded() const EXCLUDES(mu_);

  /// Events lost to backpressure; always 0 for the mutexed ring (it
  /// overwrites instead of dropping).
  virtual int64_t dropped() const { return 0; }

  /// Live window, oldest first.
  virtual std::vector<DecisionEvent> Snapshot() const EXCLUDES(mu_);

  /// Writes the live window as JSONL, oldest first.
  void WriteJsonl(std::ostream& os) const;

  /// Writes the live window to `path` (overwrite).
  Status WriteJsonlFile(const std::string& path) const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<DecisionEvent> ring_ GUARDED_BY(mu_);
  int64_t next_seq_ GUARDED_BY(mu_) = 0;
};

/// Reads a JSONL trace file; fails on the first malformed line.
Result<std::vector<DecisionEvent>> ReadJsonlTraceFile(
    const std::string& path);

}  // namespace scrpqo
