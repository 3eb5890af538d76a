#include "common/grace_period.h"

#include <chrono>
#include <thread>

#include "common/status.h"

namespace scrpqo {

void GracePeriod::Synchronize() {
  SCRPQO_CHECK(grace_period_internal::tls_open_sections == 0,
               "GracePeriod::Synchronize called inside a read section");
  MutexLock lock(sync_mu_);
  const uint64_t flips = epoch_.load(std::memory_order_relaxed);
  WaitForDrain((flips & 1u) ^ 1u);
  epoch_.store(flips + 1, std::memory_order_seq_cst);
  WaitForDrain(flips & 1u);
}

void GracePeriod::WaitForDrain(uint64_t parity) const {
  // Read sections on the warm path last about a microsecond, so a short
  // spin usually suffices; a section that contains an optimizer call or a
  // parked test oracle gets a sleeping backoff instead of a burning core.
  int rounds = 0;
  for (;;) {
    bool drained = true;
    for (const Stripe& stripe : stripes_) {
      // seq_cst: pairs with the reader's seq_cst increment (see the file
      // comment) and acquires its release decrement, so everything the
      // reader did inside the section happens before the caller frees.
      if (stripe.readers[parity].load(std::memory_order_seq_cst) != 0) {
        drained = false;
        break;
      }
    }
    if (drained) return;
    if (++rounds < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

}  // namespace scrpqo
