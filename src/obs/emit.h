// The one sanctioned way to hand a DecisionEvent to a tracer from outside
// the obs layer.
//
// Emitters (Scr, Pcm, PqoManager, the online auditor) must not call
// Tracer::Record directly: the project lint rule `tracer-record-outside-obs`
// (tools/lint/scrpqo_lint.py) flags direct Record calls anywhere under
// src/ except src/obs/, so capture-path policy — null-tracer handling
// today; sampling, rate-limiting, or event validation tomorrow — has
// exactly one place to live instead of being re-implemented per emitter.
#pragma once

#include <utility>

#include "obs/trace.h"

namespace scrpqo {

/// Moves `event` into `tracer`; a null tracer drops the event (the
/// standard "tracing disabled" fast path, one branch). Every hop from the
/// emitter to the ring slot takes the event by rvalue reference, so it is
/// moved exactly once, into its slot.
inline void EmitDecisionEvent(Tracer* tracer, DecisionEvent&& event) {
  if (tracer == nullptr) return;
  tracer->Record(std::move(event));
}

}  // namespace scrpqo
