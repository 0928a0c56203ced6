// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Self-tests of the benchmark's own pieces: the Zipf sampler's rank
// frequencies, open-loop due-time accounting under an injected server
// stall, the percentile rule and its printed sample count, trace
// generation's key ownership, span self time, and the oracle flagging
// an injected wrong answer and an injected lost write. Run with
// `python3 perfbench/run.py --selftest` (or ctest in the build dir).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestZipfRankFrequencies() {
  std::printf("zipf rank frequencies\n");
  const ZipfSampler zipf(1000, 0.99);
  SplitMix64 rng(7);
  constexpr int kSamples = 1000000;
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++hits[zipf.Sample(&rng)];
  // The model: P(r) = (r+1)^-s / H(n, s).
  double h = 0;
  for (int r = 1; r <= 1000; ++r) h += std::pow(r, -0.99);
  for (int r : {0, 1, 2, 9, 99}) {
    const double want = std::pow(r + 1, -0.99) / h;
    EXPECT(std::fabs(zipf.Probability(r) - want) < 1e-12);
    const double got = static_cast<double>(hits[r]) / kSamples;
    // Within 4 standard deviations of the binomial count.
    const double sd = std::sqrt(want * (1 - want) / kSamples);
    EXPECT(std::fabs(got - want) < 4 * sd);
  }
  EXPECT(hits[0] > hits[1] && hits[1] > hits[9] && hits[9] > hits[99]);
}

void TestDueTimeAccounting() {
  std::printf("open-loop due-time accounting\n");
  // Virtual clock in ns: requests every 100 us, each served in 10 us,
  // except request 5, which hits a 1 ms server stall.
  uint64_t clock = 0;
  const OpenLoopResult r = RunOpenLoop(
      20, 0, 100000, [&]() { return clock; },
      [&](uint64_t t) {
        if (t > clock) clock = t;
      },
      [&](uint64_t k) { clock += k == 5 ? 1010000 : 10000; });
  for (int k = 0; k < 5; ++k) EXPECT(r.latency_us[k] == 10);
  EXPECT(r.latency_us[5] == 1010);
  // Request 6 was due at 600 us but could only go out at 1510 us: it is
  // charged its queueing behind the stall, not just its 10 us service.
  EXPECT(r.latency_us[6] == 920);
  for (int k = 6; k < 15; ++k) EXPECT(r.latency_us[k] > r.latency_us[k + 1]);
  EXPECT(r.latency_us[19] == 10);  // caught up again
  // The generator itself was never late: it was blocked, not slow.
  for (double lag : r.lag_us) EXPECT(lag == 0);

  // A generator that oversleeps shows up in lag, and in latency.
  clock = 0;
  const OpenLoopResult late = RunOpenLoop(
      3, 0, 100000, [&]() { return clock; },
      [&](uint64_t t) { clock = t + 7000; }, [&](uint64_t) { clock += 10000; });
  EXPECT(late.lag_us[1] == 7 && late.latency_us[1] == 17);
}

void TestPercentileRule() {
  std::printf("percentile rule and sample counts\n");
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  LatencySummary s = Summarize(&v);
  EXPECT(s.count == 999 && !s.p99_valid && s.p99 == 0);
  EXPECT(s.p90_valid && s.p90 == 900);
  v.push_back(1000);
  s = Summarize(&v);
  // Nearest rank: p99 of 1..1000 is 990, with exactly 10 samples beyond.
  EXPECT(s.count == 1000 && s.p99_valid && s.p99 == 990);
  EXPECT(s.p50 == 500);
  EXPECT(FormatWithCount(s.p50, "us", s.count) == "500.0000 us (n=1000)");
  std::vector<double> few(99, 1.0);
  s = Summarize(&few);  // 99 samples: p90 would have only 9 beyond it
  EXPECT(!s.p90_valid && s.p90 == 0 && s.p50 == 1);
  std::vector<double> one = {42};
  EXPECT(Summarize(&one).p50 == 42);
}

void TestTraceOwnership() {
  std::printf("trace generation: mix, ownership, inserts\n");
  const KeySpace ks{1000, 3};
  for (bool insert : {false, true}) {
    TrafficSpec spec{endure::Workload(0.2, 0.3, 0.1, 0.4), 0, insert};
    SplitMix64 rng(3);
    ConnCursor cursor;
    std::vector<Op> ops;
    GenerateOps(spec, ks, 2, 20000, nullptr, &rng, &cursor, &ops);
    int counts[kNumOpKinds] = {0, 0, 0, 0};
    for (const Op& op : ops) {
      ++counts[static_cast<int>(op.kind)];
      if (op.kind == OpKind::kPut) {
        EXPECT(op.key % 2 == 0 && ks.Owner(op.key) == 2);
        EXPECT((op.key / 2 >= ks.preload) == insert);
        EXPECT((op.arg >> 32) >= 1);
      }
      if (op.kind == OpKind::kGetEmpty) EXPECT(op.key % 2 == 1);
      if (op.kind == OpKind::kScan) EXPECT(op.arg <= 2 * ks.preload);
    }
    EXPECT(std::abs(counts[3] - 8000) < 400);
    EXPECT(std::abs(counts[0] - 4000) < 400);
  }
}

void TestSelfTime() {
  std::printf("span self time\n");
  std::vector<Span> spans(3);
  spans[0] = {"parent", 1, 0, 0, 0, 100000};
  spans[1] = {"child", 2, 1, 0, 10000, 30000};
  spans[2] = {"child", 3, 1, 0, 20000, 50000};  // overlaps the first child
  for (const SelfTime& t : ComputeSelfTimes(spans)) {
    if (t.name == "parent") EXPECT(t.total_us == 100 && t.self_us == 60);
    if (t.name == "child") EXPECT(t.count == 2 && t.self_us == 50);
  }
  SpanRecorder rec;
  SpanLog* log = rec.NewLog();
  {
    ScopedSpan outer(log, "outer");
    ScopedSpan inner(log, "inner", 42);
  }
  const std::vector<Span> all = rec.All();
  EXPECT(all.size() == 2 && all[0].parent == all[1].id &&
         all[0].request_id == 42);
}

void TestOracle() {
  std::printf("oracle: wrong answers and lost writes\n");
  const KeySpace ks{100, 3};
  Oracle o(ks);
  std::string why;
  // Preloaded key 2i holds i; odd keys are never found.
  EXPECT(o.CheckGet(0, 20, 10, &why));
  EXPECT(!o.CheckGet(0, 20, 11, &why));            // injected wrong value
  EXPECT(!o.CheckGet(1, 20, std::nullopt, &why));  // preloaded key missing
  EXPECT(!o.CheckGet(0, 21, 5, &why));             // odd key found
  // Connection 1 owns key 2 (index 1): exact last acked value.
  const uint64_t v = EncodeValue(2, 7);
  o.OnPutAck(1, 2, v);
  EXPECT(o.CheckGet(1, 2, v, &why));
  EXPECT(!o.CheckGet(1, 2, 1, &why));  // stale preload value after an ack
  EXPECT(o.CheckGet(0, 2, 1, &why));   // another connection may see either
  EXPECT(!o.CheckGet(0, 2, EncodeValue(4, 7), &why));  // wrong key's tag
  // Scans: sorted, in range, every preloaded key of the range.
  std::vector<KV> scan = {{10, 5}, {12, 6}, {14, 7}};
  EXPECT(o.CheckScan(0, 10, 16, scan, &why));
  EXPECT(!o.CheckScan(0, 10, 18, scan, &why));  // key 16 missing
  std::vector<KV> unsorted = {{12, 6}, {10, 5}, {14, 7}};
  EXPECT(!o.CheckScan(0, 10, 16, unsorted, &why));
  EXPECT(!o.CheckScan(0, 12, 16, scan, &why));  // 10 is out of range

  // Durability: an insert acked by connection 0 (index 102, key 204).
  const uint64_t ins = EncodeValue(204, 1);
  o.OnPutAck(0, 204, ins);
  std::vector<KV> dump;
  for (uint64_t i = 0; i < 100; ++i) dump.emplace_back(2 * i, i);
  dump[1].second = v;
  std::vector<KV> lost = dump;  // the acked insert is missing
  EXPECT(!o.CheckFullState(lost, &why));
  EXPECT(why.find("lost acked write") != std::string::npos);
  dump.emplace_back(204, ins);
  EXPECT(o.CheckFullState(dump, &why));
  std::vector<KV> stale = dump;  // connection 1's update rolled back
  stale[1].second = 1;
  EXPECT(!o.CheckFullState(stale, &why));
  EXPECT(o.LiveEntries() == 101);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestZipfRankFrequencies();
  perfbench::TestDueTimeAccounting();
  perfbench::TestPercentileRule();
  perfbench::TestTraceOwnership();
  perfbench::TestSelfTime();
  perfbench::TestOracle();
  if (perfbench::g_failures > 0) {
    std::printf("%d check(s) FAILED\n", perfbench::g_failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
