#include "common/thread_slot.h"

#include <atomic>

namespace scrpqo {

namespace thread_slot_internal {

int AssignSlot() noexcept {
  static std::atomic<unsigned> next{0};
  // Masked to stay non-negative past 2^31 threads; the mask keeps the
  // round-robin order modulo any power-of-two stripe count.
  return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) &
                          0x7fffffffu);
}

}  // namespace thread_slot_internal

}  // namespace scrpqo
