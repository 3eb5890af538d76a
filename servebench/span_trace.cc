#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace servebench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kBind:
      return "query.bind";
    case SpanKind::kSVector:
      return "query.svector";
    case SpanKind::kGetPlan:
      return "pqo.getplan";
    case SpanKind::kOptimize:
      return "optimizer.optimize";
    case SpanKind::kFlush:
      return "pqo.cache.flush";
  }
  return "?";
}

int32_t SpanBuffer::Open(SpanKind kind, uint32_t request, int64_t now_ns) {
  Span s;
  s.start_ns = now_ns;
  s.end_ns = now_ns;
  s.parent = open_;
  s.kind = kind;
  s.request = request;
  if (request == kNoRequest && open_ >= 0) {
    s.request = spans_[static_cast<size_t>(open_)].request;
  }
  spans_.push_back(s);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanBuffer::Close(int32_t index, int64_t now_ns) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = now_ns;
  open_ = s.parent;
}

SpanBuffer*& ActiveSpanBuffer() {
  thread_local SpanBuffer* active = nullptr;
  return active;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children grouped by parent, in start order; each parent loses the
  // union of its children's intervals clipped to its own.
  std::vector<std::tuple<int32_t, int64_t, int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children.emplace_back(s.parent, s.start_ns, s.end_ns);
  }
  std::sort(children.begin(), children.end());
  size_t i = 0;
  while (i < children.size()) {
    const int32_t parent = std::get<0>(children[i]);
    const Span& p = spans[static_cast<size_t>(parent)];
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (; i < children.size() && std::get<0>(children[i]) == parent; ++i) {
      const int64_t lo = std::max(std::get<1>(children[i]), p.start_ns);
      const int64_t hi = std::min(std::get<2>(children[i]), p.end_ns);
      if (hi <= lo) continue;
      if (in_run && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[static_cast<size_t>(parent)] -= covered;
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "client\tindex\tname\trequest\tparent\tstart_ns\tend_ns\n");
  for (size_t c = 0; c < buffers.size(); ++c) {
    const std::vector<Span>& spans = buffers[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%lld\t%d\t%lld\t%lld\n", c, i,
                   SpanName(s.kind),
                   s.request == kNoRequest ? -1LL
                                           : static_cast<long long>(s.request),
                   s.parent, static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
