// Named monotonic counters and log-scaled histograms for the PQO engine.
// Lookup by name happens once (create-on-first-use under a mutex); hot
// paths hold the returned pointer, which stays valid for the registry's
// lifetime.
//
// Counters and histograms are thread-striped: a write touches only the
// calling thread's cache-line-aligned stripe (indexed by its slot from
// common/thread_slot.h), so request threads recording the same metric
// never bounce a shared line between cores. Every reader sums the
// stripes. Threads beyond kMetricStripes share stripes; stripes are
// updated with atomic read-modify-writes, so sharing costs privacy, never
// counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_slot.h"
#include "common/thread_annotations.h"

namespace scrpqo {

/// Stripes per Counter / LogHistogram (a power of two).
inline constexpr unsigned kMetricStripes = 16;

/// The calling thread's metric stripe.
inline unsigned MetricStripe() noexcept {
  return ThisThreadSlot() % kMetricStripes;
}

/// Monotonic counter: one 64-byte stripe per kMetricStripes (1 KiB).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    stripes_[MetricStripe()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  /// Sum of the stripes; exact once writers quiesce.
  int64_t value() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> value{0};
  };
  Stripe stripes_[kMetricStripes];
};

/// Last-write-wins instantaneous value (e.g. the online auditor's worst
/// observed compliance margin, cache occupancy). Stored as a bit-cast
/// double so Set/value are single relaxed atomic ops.
class Gauge {
 public:
  void Set(double value);
  double value() const;

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Pointer-free exported state of one counter / gauge / histogram,
/// embeddable in SequenceMetrics.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// Histogram over non-negative values with log-scaled buckets: bucket 0
/// holds [0, 1); bucket i >= 1 holds [2^((i-1)/8), 2^(i/8)), i.e. eight
/// buckets per octave (~9% relative error), covering values up to ~2^31
/// before the overflow bucket. Suited to latencies in microseconds and
/// cost ratios alike.
///
/// Each stripe keeps its own buckets, count, sum and max (2,112 bytes,
/// 33 cache lines; 33 KiB per histogram), so Record's read-modify-writes
/// and its sum/max compare-exchange loops stay on lines the recording
/// thread owns. Readers merge the stripes first; the percentile, mean and
/// max of the merge equal those of one unstriped histogram fed the same
/// values.
class LogHistogram {
 public:
  static constexpr int kNumBuckets = 256;

  void Record(double value);

  int64_t count() const;

  /// Records in `bucket`, summed over the stripes.
  int64_t BucketCount(int bucket) const;

  /// Percentile `p` in [0, 100] as the geometric midpoint of the bucket
  /// holding the target rank; ranks landing in the highest non-empty
  /// bucket report the exact tracked max (so p100 — and every percentile
  /// of a single-value histogram — is exact). 0 when empty.
  double Percentile(double p) const;

  /// Largest recorded value, tracked exactly. 0 when empty.
  double max_value() const;

  double mean() const;

  HistogramSnapshot Snapshot(const std::string& name) const;

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> count{0};
    /// Sum and max as bit-cast doubles updated via CAS (portable pre-C++20
    /// fetch_add-for-double replacement).
    std::atomic<uint64_t> sum_bits{0};
    std::atomic<uint64_t> max_bits{0};
    std::atomic<int64_t> buckets[kNumBuckets] = {};
  };

  /// The stripes summed into plain values, the input of every reader.
  struct Merged;
  Merged Merge() const;

  static int BucketFor(double value);
  static double BucketMid(int bucket);

  Stripe stripes_[kMetricStripes];
};

/// Full pointer-free registry export.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; `def` when absent.
  int64_t CounterValue(const std::string& name, int64_t def = 0) const;

  /// Gauge value by name; `def` when absent.
  double GaugeValue(const std::string& name, double def = 0.0) const;

  /// Histogram snapshot by name; nullptr when absent. The pointer is into
  /// this snapshot — it lives exactly as long as the RegistrySnapshot.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Create-on-first-use; returned pointer is stable for the registry's
  /// lifetime. Thread-safe.
  Counter* counter(const std::string& name) EXCLUDES(mu_);
  Gauge* gauge(const std::string& name) EXCLUDES(mu_);
  LogHistogram* histogram(const std::string& name) EXCLUDES(mu_);

  RegistrySnapshot Snapshot() const EXCLUDES(mu_);

  /// Writes the snapshot as a single JSON object:
  /// {"counters": {...}, "histograms": {name: {...}, ...}}.
  void WriteJson(std::ostream& os) const;
  Status WriteJsonFile(const std::string& path) const;

 private:
  /// Guards the name->object maps only; the objects themselves are
  /// internally atomic and deliberately NOT guarded (hot paths hold raw
  /// pointers to them with no lock).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace scrpqo
