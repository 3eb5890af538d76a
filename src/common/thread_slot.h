// Per-thread slot numbers for thread-striped shared state.
//
// Structures that would otherwise put every thread's writes on one cache
// line (GracePeriod's reader counts, the metrics registry's counters and
// histograms) give each thread its own cache-line stripe and index it
// with ThisThreadSlot(). A thread gets its slot round-robin on first use
// and keeps it for life; slots are never reused, so a structure with S
// stripes indexes them with `slot % S`, and two threads share a stripe
// only when more than S threads have taken slots. Sharing stays correct
// (stripes are updated with atomic read-modify-writes), only less
// private.
#pragma once

namespace scrpqo {

namespace thread_slot_internal {

/// The calling thread's slot, -1 until its first ThisThreadSlot().
/// constinit: a constant-initialized thread_local is a plain TLS load,
/// with no lazy-initialization wrapper on the access path.
inline constinit thread_local int tls_slot = -1;

/// Takes the next slot number; out of line because it runs once per
/// thread.
int AssignSlot() noexcept;

}  // namespace thread_slot_internal

/// The calling thread's slot number. Unsigned so that `% stripes` with a
/// power-of-two stripe count compiles to a mask.
inline unsigned ThisThreadSlot() noexcept {
  int slot = thread_slot_internal::tls_slot;
  if (slot < 0) [[unlikely]] {
    slot = thread_slot_internal::AssignSlot();
    thread_slot_internal::tls_slot = slot;
  }
  return static_cast<unsigned>(slot);
}

}  // namespace scrpqo
