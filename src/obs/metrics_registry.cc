#include "obs/metrics_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace scrpqo {

namespace {

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  for (;;) {
    double next = std::bit_cast<double>(old_bits) + delta;
    if (bits->compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(next),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicMaxDouble(std::atomic<uint64_t>* bits, double value) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  for (;;) {
    if (std::bit_cast<double>(old_bits) >= value) return;
    if (bits->compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(value),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AppendJsonDouble(double v, std::ostream& os) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void Gauge::Set(double value) {
  bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

int64_t Counter::value() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

static_assert(sizeof(LogHistogram) == kMetricStripes * 33 * 64,
              "LogHistogram stripe layout changed: update the byte counts "
              "in metrics_registry.h and DESIGN.md");

int LogHistogram::BucketFor(double value) {
  if (!(value >= 1.0)) return 0;  // [0,1) plus NaN/negatives
  int b = 1 + static_cast<int>(std::floor(8.0 * std::log2(value)));
  return std::min(b, kNumBuckets - 1);
}

double LogHistogram::BucketMid(int bucket) {
  if (bucket <= 0) return 0.5;
  // Geometric midpoint of [2^((b-1)/8), 2^(b/8)).
  return std::exp2((static_cast<double>(bucket) - 0.5) / 8.0);
}

void LogHistogram::Record(double value) {
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  Stripe& stripe = stripes_[MetricStripe()];
  stripe.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  stripe.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&stripe.sum_bits, value);
  AtomicMaxDouble(&stripe.max_bits, value);
}

struct LogHistogram::Merged {
  int64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  int64_t buckets[kNumBuckets] = {};

  double Percentile(double p) const;
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

LogHistogram::Merged LogHistogram::Merge() const {
  Merged m;
  for (const Stripe& stripe : stripes_) {
    m.count += stripe.count.load(std::memory_order_relaxed);
    m.sum += std::bit_cast<double>(
        stripe.sum_bits.load(std::memory_order_relaxed));
    m.max = std::max(m.max, std::bit_cast<double>(stripe.max_bits.load(
                                std::memory_order_relaxed)));
    for (int b = 0; b < kNumBuckets; ++b) {
      m.buckets[b] += stripe.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return m;
}

double LogHistogram::Merged::Percentile(double p) const {
  const int64_t n = count;
  if (n <= 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Target rank in [1, n]; walk cumulative bucket counts.
  int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(p / 100.0 *
                                                 static_cast<double>(n))));
  int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= target) {
      // When the rank lands in the bucket holding the largest recorded
      // value (cumulative already covers all n records), the exact tracked
      // max is strictly better information than the bucket midpoint. This
      // also makes single-value histograms and p100 exact.
      if (cumulative >= n || b == kNumBuckets - 1) return max;
      return std::min(BucketMid(b), max);
    }
  }
  return max;
}

int64_t LogHistogram::count() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t LogHistogram::BucketCount(int bucket) const {
  if (bucket < 0 || bucket >= kNumBuckets) return 0;
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

double LogHistogram::Percentile(double p) const {
  return Merge().Percentile(p);
}

double LogHistogram::max_value() const {
  double max = 0.0;
  for (const Stripe& stripe : stripes_) {
    max = std::max(max, std::bit_cast<double>(
                            stripe.max_bits.load(std::memory_order_relaxed)));
  }
  return max;
}

double LogHistogram::mean() const { return Merge().mean(); }

HistogramSnapshot LogHistogram::Snapshot(const std::string& name) const {
  const Merged m = Merge();
  HistogramSnapshot s;
  s.name = name;
  s.count = m.count;
  s.p50 = m.Percentile(50.0);
  s.p90 = m.Percentile(90.0);
  s.p99 = m.Percentile(99.0);
  s.mean = m.mean();
  s.max = m.max;
  return s;
}

int64_t RegistrySnapshot::CounterValue(const std::string& name,
                                       int64_t def) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return def;
}

double RegistrySnapshot::GaugeValue(const std::string& name,
                                    double def) const {
  for (const GaugeSnapshot& g : gauges) {
    if (g.name == name) return g.value;
  }
  return def;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LogHistogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LogHistogram>();
  return slot.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeSnapshot{name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->Snapshot(name));
  }
  return snap;
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  RegistrySnapshot snap = Snapshot();
  os << "{\"counters\":{";
  bool first = true;
  for (const CounterSnapshot& c : snap.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << c.name << "\":" << c.value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& g : snap.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << g.name << "\":";
    AppendJsonDouble(g.value, os);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const HistogramSnapshot& h : snap.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << h.name << "\":{\"count\":" << h.count << ",\"p50\":";
    AppendJsonDouble(h.p50, os);
    os << ",\"p90\":";
    AppendJsonDouble(h.p90, os);
    os << ",\"p99\":";
    AppendJsonDouble(h.p99, os);
    os << ",\"mean\":";
    AppendJsonDouble(h.mean, os);
    os << ",\"max\":";
    AppendJsonDouble(h.max, os);
    os << "}";
  }
  os << "}}\n";
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("short write to metrics file: " + path);
  }
  return Status::OK();
}

}  // namespace scrpqo
