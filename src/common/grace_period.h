// Grace periods for lock-free readers of published, immutable data: an
// SRCU-style read-side primitive.
//
// A reader brackets every use of a published pointer with a ReadSection:
// one atomic increment on the calling thread's counter stripe to enter,
// one decrement on the same counter to exit. No lock, no shared cache
// line beyond the thread's own stripe. A writer that has unpublished an
// object (stored a replacement pointer) calls Synchronize(), which
// returns only once every read section that could still hold the old
// pointer has closed; the writer may then free the object.
//
// Protocol. Each stripe holds two reader counts, one per epoch parity. A
// reader counts itself under the parity it reads on entry. Synchronize,
// serialized by sync_mu_:
//   1. waits for the inactive parity to drain (stragglers that read the
//      parity before the previous flip);
//   2. flips the parity, so new readers count under the other one;
//   3. waits for the previously active parity to drain.
// Both parities are therefore read after the writer's unpublishing
// store. A reader that still holds the old pointer incremented its
// counter before it loaded that pointer, so the writer's scan sees it —
// provided the reader's pointer load and the writer's unpublishing store
// are seq_cst like the counter accesses (on x86 and AArch64 a seq_cst load
// costs what an acquire load does). The flip only keeps a steady stream
// of new readers from starving a writer.
//
// Rules: Synchronize is called with no lock held (it sleeps while read
// sections drain) and never inside a read section of any GracePeriod —
// that would wait for itself; it SCRPQO_CHECK-fails instead. A
// ReadSection is closed on the thread that opened it. Sections nest.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/thread_annotations.h"
#include "common/thread_slot.h"

namespace scrpqo {

namespace grace_period_internal {

/// Read sections the calling thread has open, which Synchronize checks is
/// zero.
inline constinit thread_local int tls_open_sections = 0;

}  // namespace grace_period_internal

class GracePeriod {
 public:
  /// Stripes of reader counters, indexed by the thread's slot
  /// (common/thread_slot.h). Threads beyond this share stripes (still
  /// correct, only less private).
  static constexpr int kStripes = 32;

  GracePeriod() = default;
  GracePeriod(const GracePeriod&) = delete;
  GracePeriod& operator=(const GracePeriod&) = delete;

  /// RAII read section: published pointers loaded inside it stay valid
  /// until it closes.
  class ReadSection {
   public:
    explicit ReadSection(GracePeriod& gp) noexcept : counter_(gp.Enter()) {}
    ~ReadSection() {
      counter_->fetch_sub(1, std::memory_order_release);
      --grace_period_internal::tls_open_sections;
    }

    ReadSection(const ReadSection&) = delete;
    ReadSection& operator=(const ReadSection&) = delete;

   private:
    std::atomic<int64_t>* counter_;
  };

  /// Waits until every read section open at the call has closed. See the
  /// file comment for the rules.
  void Synchronize() EXCLUDES(sync_mu_);

  /// Parity flips so far, one per Synchronize (its low bit is the parity
  /// new readers count under).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> readers[2] = {0, 0};
  };

  std::atomic<int64_t>* Enter() noexcept {
    const unsigned stripe = ThisThreadSlot() % kStripes;
    ++grace_period_internal::tls_open_sections;
    // The parity is only a hint that steers new readers away from the
    // parity a writer is draining; Synchronize scans both, so a stale
    // value is still correct.
    const uint64_t parity = epoch_.load(std::memory_order_relaxed) & 1u;
    std::atomic<int64_t>* counter = &stripes_[stripe].readers[parity];
    counter->fetch_add(1, std::memory_order_seq_cst);
    return counter;
  }

  /// Blocks until every stripe's count for `parity` reads zero.
  void WaitForDrain(uint64_t parity) const REQUIRES(sync_mu_);

  Stripe stripes_[kStripes];
  /// Advanced only by Synchronize under sync_mu_; read by every reader.
  std::atomic<uint64_t> epoch_{0};
  /// Serializes writers: two concurrent flips would let each skip the
  /// other's drain.
  Mutex sync_mu_;
};

}  // namespace scrpqo
