// Lock-free decision-event capture: each emitting thread gets its own
// SPSC ring (obs/event_ring.h), registered lazily through a thread-local
// handle on first Record; a background exporter thread drains every ring
// a few thousand times a second, assigns global sequence numbers in drain
// order, and fans the merged stream out to pluggable TraceSinks
// (obs/sink.h). Producers therefore never contend on a lock or with each
// other — a Record is one TLS scan plus one SPSC push.
//
// Loss policy: a full ring drops (never blocks the serving path). The
// exporter notices the ring's drop counter advancing and (a) adds it to
// dropped(), (b) synthesizes a kRingDropped event carrying the delta in
// its `dropped` field, so the loss is recorded in-band in the trace.
//
// Thread-handle lifetime: handles are keyed by a process-unique tracer
// id (not the tracer's address, which the allocator can reuse), and hold
// shared ownership of their ring, so a thread that outlives the tracer
// can still touch its handle safely; retired handles are pruned the next
// time the thread registers with a new tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_ring.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace scrpqo {

class RingTracer : public Tracer {
 public:
  struct Options {
    /// Per-producer-thread ring capacity (rounded up to a power of two).
    size_t ring_capacity = 1 << 12;
    /// Retained in-memory window backing Snapshot(), same role as the
    /// mutexed Tracer's ring.
    size_t window_capacity = 1 << 16;
    /// Exporter wake-up period between drains, microseconds.
    int64_t drain_interval_micros = 200;
  };

  RingTracer();
  explicit RingTracer(Options options);
  ~RingTracer() override;

  /// Lock-free enqueue onto the calling thread's ring (registers the
  /// ring on this thread's first Record against this tracer).
  void Record(DecisionEvent&& event) override;

  /// Events exported so far (drained, seq-stamped, and fanned out).
  /// Record attempts = total_recorded() + dropped() + still-buffered.
  int64_t total_recorded() const override;

  /// All-time events lost to full rings.
  int64_t dropped() const override;

  /// Retained window (from the built-in InMemorySink), oldest first.
  /// Does NOT force a drain; call Flush() first for an exact view.
  std::vector<DecisionEvent> Snapshot() const override;

  /// Attaches a sink to the fan-out. Safe at any time; the sink starts
  /// receiving batches at the next drain.
  void AddSink(std::shared_ptr<TraceSink> sink) EXCLUDES(export_mu_);

  /// Drains every ring now and flushes all sinks. On return, every event
  /// recorded-before-Flush by *quiesced* producers is exported; a push
  /// racing with the drain may land in the next round.
  Status Flush() EXCLUDES(export_mu_);

 private:
  struct ThreadRing {
    explicit ThreadRing(size_t capacity) : ring(capacity) {}
    SpscEventRing ring;
    /// Drop count already accounted for by the exporter.
    int64_t drops_seen = 0;
  };

  std::shared_ptr<ThreadRing> RegisterThisThread() EXCLUDES(rings_mu_);
  /// One drain round over all rings. Takes rings_mu_ briefly for the ring
  /// snapshot — the exporter-side lock order is export_mu_ before
  /// rings_mu_, and neither is ever held while touching a serving-path
  /// lock (producers are lock-free by construction).
  void DrainLocked() REQUIRES(export_mu_) EXCLUDES(rings_mu_);
  void ExporterLoop();

  const Options options_;
  const uint64_t tracer_id_;
  /// Set by the destructor; threads use it to prune dead TLS handles.
  const std::shared_ptr<std::atomic<bool>> retired_;

  /// Guards the ring registry only (producers registering vs. the
  /// exporter snapshotting); each ring's contents are SPSC-synchronized
  /// by the ring itself.
  Mutex rings_mu_;
  std::vector<std::shared_ptr<ThreadRing>> rings_ GUARDED_BY(rings_mu_);

  /// Serializes drain rounds (exporter loop vs. explicit Flush) and
  /// guards the exporter-side state: sink list, sequence counter, and the
  /// ThreadRing::drops_seen bookkeeping DrainLocked updates. Lock order:
  /// a drain round snapshots the registry under rings_mu_ while holding
  /// export_mu_, never the reverse (checked by -Wthread-safety-beta).
  mutable Mutex export_mu_ ACQUIRED_BEFORE(rings_mu_);
  std::vector<std::shared_ptr<TraceSink>> sinks_ GUARDED_BY(export_mu_);
  /// Built-in retained window. The pointer is immutable after
  /// construction (Snapshot reads it lock-free); InMemorySink locks
  /// itself internally.
  const std::shared_ptr<InMemorySink> window_;
  int64_t next_seq_ GUARDED_BY(export_mu_) = 0;
  /// Drain-round scratch (guarded by export_mu_): reused across rounds so
  /// the exporter's steady state allocates nothing.
  std::vector<std::shared_ptr<ThreadRing>> rings_scratch_
      GUARDED_BY(export_mu_);
  std::vector<DecisionEvent> batch_scratch_ GUARDED_BY(export_mu_);

  std::atomic<int64_t> exported_total_{0};
  std::atomic<int64_t> dropped_total_{0};

  Mutex stop_mu_;
  CondVar stop_cv_;
  bool stopping_ GUARDED_BY(stop_mu_) = false;
  std::thread exporter_;
};

}  // namespace scrpqo
