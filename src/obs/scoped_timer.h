// RAII section timer: on destruction, records the elapsed microseconds
// into a LogHistogram. Constructed with a null histogram it does nothing —
// hot paths pay a branch, not a clock read, when metrics are disabled.
// Inside a GetPlanSpan it follows the span's boundary rule (obs/span.h):
// it starts at the span's latest boundary and its stop is a new boundary,
// so a timer around a whole decision shares the readings of the stage
// timers inside it.
#pragma once

#include <cstdint>

#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace scrpqo {

class ScopedTimer {
 public:
  explicit ScopedTimer(LogHistogram* histogram)
      : histogram_(histogram),
        interval_(histogram != nullptr ? SpanContext::State() : nullptr,
                  histogram != nullptr) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { Stop(); }

  /// Records now instead of at scope exit; idempotent.
  void Stop() {
    if (!interval_.armed()) return;
    histogram_->Record(static_cast<double>(interval_.Close()));
  }

  /// Microseconds elapsed since `start` (shared helper for call sites that
  /// time sections by hand, e.g. to stamp DecisionEvents).
  static int64_t ElapsedMicros(SpanClock::time_point start) {
    return MicrosBetween(start, SpanClock::now());
  }

 private:
  LogHistogram* histogram_;
  SpanInterval interval_;
};

}  // namespace scrpqo
