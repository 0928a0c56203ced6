// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// The load generator's pure pieces: a seeded generator of its own (so a
// seed names the same inputs whatever the engine's util/random.h does),
// a Zipf sampler, per-connection op traces drawn from a (z0, z1, q, w)
// mix, the percentile rule, and due-time accounting for the open loop.
// Nothing here talks to the engine; selftest.cc checks each piece.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/workload.h"

namespace perfbench {

/// splitmix64: tiny, fast, and fully determined by its seed.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t x_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most frequent): P(r) ∝ 1/(r+1)^s.
/// Exact inverse-CDF sampling over a precomputed cumulative table.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);
  uint64_t Sample(SplitMix64* rng) const;
  /// Model probability of rank r (for the self-test).
  double Probability(uint64_t r) const;

 private:
  std::vector<double> cdf_;
};

/// The paper's query classes z0, z1, q, w, in that order.
enum class OpKind : uint8_t { kGetEmpty, kGetHit, kScan, kPut };
inline constexpr int kNumOpKinds = 4;

/// One generated request. GET: `key`; SCAN: [key, arg); PUT: key -> arg.
struct Op {
  uint64_t key = 0;
  uint64_t arg = 0;
  OpKind kind = OpKind::kGetHit;
};

/// How one phase's traffic is drawn.
struct TrafficSpec {
  endure::Workload mix;      ///< observed (z0, z1, q, w)
  double zipf_s = 0;         ///< 0 = uniform keys, else Zipf exponent
  bool insert_new = false;   ///< writes insert new keys (else update)
};

/// Key layout shared by generator and oracle. `preload` entries sit at
/// even keys 2i (value i), as bridge::OpenTunedShardedDb loads them; odd
/// keys are never written. Key index i is owned by connection i % conns:
/// only its owner writes it, so every connection knows the exact value
/// its own keys must hold. Inserted keys start at insert_base(), the
/// first multiple of `conns` at or above the preload.
struct KeySpace {
  uint64_t preload = 0;
  int conns = 1;
  static constexpr uint64_t kScanKeys = 32;  ///< key span of one SCAN

  uint64_t insert_base() const {
    const uint64_t c = static_cast<uint64_t>(conns);
    return (preload + c - 1) / c * c;
  }
  int Owner(uint64_t key) const {
    return static_cast<int>((key / 2) % static_cast<uint64_t>(conns));
  }
};

/// Written values carry the key's low 32 bits and a per-connection
/// version >= 1; preloaded values are the key index (< 2^32), so any
/// value read back can be attributed to the preload or to its writer.
inline uint64_t EncodeValue(uint64_t key, uint64_t version) {
  return (version << 32) | (key & 0xffffffffull);
}

/// Per-connection generator state that must persist across phases
/// (insert cursor and write version), so one connection never reuses a
/// version or an inserted key.
struct ConnCursor {
  uint64_t next_version = 1;
  uint64_t next_insert = 0;  ///< j: inserts index insert_base()+c+conns*j
};

/// Appends `count` ops for connection `conn` to `out`.
void GenerateOps(const TrafficSpec& spec, const KeySpace& ks, int conn,
                 uint64_t count, const ZipfSampler* zipf, SplitMix64* rng,
                 ConnCursor* cursor, std::vector<Op>* out);

/// A percentile summary with the rule applied: a percentile is reported
/// only when at least 10 samples lie beyond it (p90: n >= 100, p99:
/// n >= 1000); otherwise its `valid` flag is false and its value 0.
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  bool p90_valid = false;
  bool p99_valid = false;
};
/// Nearest-rank percentiles of `samples` (sorted in place).
LatencySummary Summarize(std::vector<double>* samples);
/// Nearest-rank percentile q in (0, 1] of sorted samples.
double Percentile(const std::vector<double>& sorted, double q);
/// "123.4 us (n=5678)" — every printed percentile carries its count.
std::string FormatWithCount(double value, const char* unit, uint64_t n);

/// Open-loop due-time accounting for one connection: request k is due at
/// `start_ns + k * interval_ns`. It is sent when it is due or, if the
/// previous request is still outstanding, as soon as that one returns;
/// its latency runs from its due time, so a stall is charged to every
/// request queued behind it. `lag_ns` records how late the generator
/// itself sent a request it was free to send (its sleep overshoot).
struct OpenLoopResult {
  std::vector<double> latency_us;  ///< per request, from due time
  std::vector<double> lag_us;      ///< per request, generator lateness
};
/// `now_ns()` reads the clock, `wait_until_ns(t)` sleeps until t and
/// `execute(k)` runs request k synchronously; injected so the self-test
/// can drive a virtual clock with a simulated server stall.
OpenLoopResult RunOpenLoop(uint64_t count, uint64_t start_ns,
                           uint64_t interval_ns,
                           const std::function<uint64_t()>& now_ns,
                           const std::function<void(uint64_t)>& wait_until_ns,
                           const std::function<void(uint64_t)>& execute);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
