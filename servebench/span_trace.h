// Spans recorded by the serving benchmark around its calls into each layer.
//
// Each client thread owns a SpanBuffer; a span records its layer, start,
// end, parent span and request id. Nothing is shared between threads while
// a run measures: buffers are read only after the clients have stopped.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (SelfTimes).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class SpanKind : uint8_t {
  kRequest,   // the request root: bind through getPlan
  kBind,      // query: QueryInstance construction from the parameter set
  kSVector,   // query: ComputeSelectivityVector
  kGetPlan,   // pqo: PqoManager::OnInstance
  kOptimize,  // optimizer: OptimizeWithSVector, through the engine oracle
  kFlush,     // pqo.cache: PqoManager::FlushAll between measuring epochs
};
inline constexpr int kNumSpanKinds = 6;

const char* SpanName(SpanKind kind);

/// Request id of spans recorded outside any request (flushes).
inline constexpr uint32_t kNoRequest = 0xffffffffu;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same buffer; -1 for a root.
  int32_t parent = -1;
  uint32_t request = kNoRequest;
  SpanKind kind = SpanKind::kRequest;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanBuffer {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }

  /// Opens a span under the innermost open span. A child inherits the
  /// request id of its parent when `request` is kNoRequest.
  int32_t Open(SpanKind kind, uint32_t request, int64_t now_ns);
  /// Closes span `index`, which must be the innermost open span.
  void Close(int32_t index, int64_t now_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// The buffer of the request the calling thread is tracing, or null when
/// it traces nothing. Set by the client loop around a sampled request, so
/// spans opened deeper in the call (the optimizer oracle) find it.
SpanBuffer*& ActiveSpanBuffer();

/// Records one span into the thread's active buffer; a no-op without one.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint32_t request = kNoRequest)
      : buf_(ActiveSpanBuffer()) {
    if (buf_ != nullptr) index_ = buf_->Open(kind, request, NowNs());
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->Close(index_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  int32_t index_ = -1;
};

/// Self time of every span of one buffer: its duration minus the union of
/// its children's intervals clipped to its own.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Writes the buffers as tab-separated text (one span a line, times
/// relative to `origin_ns`). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                int64_t origin_ns);

}  // namespace servebench
