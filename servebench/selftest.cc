// Self-tests of the serving benchmark's own arithmetic: the percentile rule
// and span self times. Exits non-zero on the first failed expectation.
//
//   servebench_selftest

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_stats.h"
#include "span_trace.h"

namespace servebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%-64s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++failures;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v;
  for (int64_t i = n; i >= 1; --i) v.push_back(i);  // reversed on purpose
  return v;
}

void PercentileRule() {
  {
    // 1000 samples: p99 is rank 990 with exactly 10 samples beyond it.
    std::vector<int64_t> v = Iota(1000);
    Quantile q = QuantileOf(&v, 0.99);
    Expect(q.ok && q.value == 990 && q.beyond == 10,
           "p99 of 1..1000 is 990 with 10 samples beyond");
  }
  {
    // 999 samples: rank 990 leaves 9 beyond, so p99 is not reported.
    std::vector<int64_t> v = Iota(999);
    Quantile q = QuantileOf(&v, 0.99);
    Expect(!q.ok && std::isnan(q.value) && q.beyond == 9,
           "p99 of 999 samples is refused (9 beyond)");
  }
  {
    std::vector<int64_t> v = Iota(21);
    Quantile q = QuantileOf(&v, 0.50);
    Expect(q.ok && q.value == 11 && q.beyond == 10,
           "p50 of 1..21 is 11 with 10 beyond");
  }
  {
    std::vector<int64_t> v = Iota(20);
    Quantile q = QuantileOf(&v, 0.50);
    Expect(q.ok && q.value == 10 && q.beyond == 10,
           "p50 of 1..20 is 10 with 10 beyond");
  }
  {
    std::vector<int64_t> v = Iota(19);
    Quantile q = QuantileOf(&v, 0.50);
    Expect(!q.ok, "p50 of 19 samples is refused (9 beyond)");
  }
  {
    std::vector<int64_t> v;
    Quantile q = QuantileOf(&v, 0.50);
    Expect(!q.ok && q.n == 0, "no samples: nothing is reported");
  }
  Expect(NearestRank(0.99, 100000) == 99000, "nearest rank of p99 in 1e5");
}

Span At(SpanKind kind, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.kind = kind;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.request = 7;
  return s;
}

void SelfTimeArithmetic() {
  // request [0,100): bind [5,10), svector [10,30), getplan [30,95)
  //   getplan: optimize [40,80)
  // A second root [200,210) has no children.
  std::vector<Span> spans = {
      At(SpanKind::kRequest, 0, 100, -1),  At(SpanKind::kBind, 5, 10, 0),
      At(SpanKind::kSVector, 10, 30, 0),   At(SpanKind::kGetPlan, 30, 95, 0),
      At(SpanKind::kOptimize, 40, 80, 3),  At(SpanKind::kRequest, 200, 210, -1),
  };
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 100 - 5 - 20 - 65, "root self = duration - children");
  Expect(self[3] == 65 - 40, "getplan self = duration - optimize child");
  Expect(self[4] == 40 && self[1] == 5 && self[2] == 20,
         "leaves keep their whole duration");
  Expect(self[5] == 10, "childless root keeps its duration");
  int64_t sum = 0;
  for (size_t i = 0; i < 5; ++i) sum += self[i];
  Expect(sum == 100, "self times of one tree sum to the root's duration");

  // Overlapping and overhanging children count once and only inside the
  // parent: children [10,40) and [30,60) and [90,130) under [0,100).
  std::vector<Span> overlap = {
      At(SpanKind::kGetPlan, 0, 100, -1),
      At(SpanKind::kOptimize, 10, 40, 0),
      At(SpanKind::kOptimize, 30, 60, 0),
      At(SpanKind::kOptimize, 90, 130, 0),
  };
  self = SelfTimes(overlap);
  Expect(self[0] == 100 - 50 - 10, "overlapping children are merged, clipped");

  // SpanBuffer links children to the innermost open span and inherits ids.
  SpanBuffer buf;
  int32_t root = buf.Open(SpanKind::kRequest, 42, 0);
  int32_t child = buf.Open(SpanKind::kGetPlan, kNoRequest, 1);
  int32_t grandchild = buf.Open(SpanKind::kOptimize, kNoRequest, 2);
  buf.Close(grandchild, 3);
  buf.Close(child, 4);
  int32_t sibling = buf.Open(SpanKind::kBind, kNoRequest, 5);
  buf.Close(sibling, 6);
  buf.Close(root, 7);
  const std::vector<Span>& s = buf.spans();
  Expect(s[1].parent == root && s[2].parent == child &&
             s[3].parent == root && s[0].parent == -1,
         "span buffer nests by open order");
  Expect(s[2].request == 42 && s[3].request == 42,
         "children inherit the request id");
  Expect(SelfTimes(s)[0] == 7 - 3 - 1, "buffer spans feed SelfTimes");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::PercentileRule();
  servebench::SelfTimeArithmetic();
  if (servebench::failures != 0) {
    std::printf("%d self-test expectation(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
