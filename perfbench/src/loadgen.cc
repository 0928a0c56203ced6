// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

ZipfSampler::ZipfSampler(uint64_t n, double s) : cdf_(n) {
  double sum = 0;
  for (uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t ZipfSampler::Sample(SplitMix64* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double ZipfSampler::Probability(uint64_t r) const {
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

void GenerateOps(const TrafficSpec& spec, const KeySpace& ks, int conn,
                 uint64_t count, const ZipfSampler* zipf, SplitMix64* rng,
                 ConnCursor* cursor, std::vector<Op>* out) {
  const uint64_t conns = static_cast<uint64_t>(ks.conns);
  auto draw_index = [&]() {
    return zipf != nullptr ? zipf->Sample(rng) : rng->Uniform(ks.preload);
  };
  const endure::Workload& m = spec.mix;
  out->reserve(out->size() + count);
  for (uint64_t n = 0; n < count; ++n) {
    const double u = rng->NextDouble() * m.Sum();
    Op op;
    if (u < m.z0) {
      op.kind = OpKind::kGetEmpty;
      op.key = 2 * draw_index() + 1;
    } else if (u < m.z0 + m.z1) {
      op.kind = OpKind::kGetHit;
      op.key = 2 * draw_index();
    } else if (u < m.z0 + m.z1 + m.q) {
      op.kind = OpKind::kScan;
      op.key = 2 * rng->Uniform(ks.preload - KeySpace::kScanKeys / 2);
      op.arg = op.key + KeySpace::kScanKeys;
    } else {
      op.kind = OpKind::kPut;
      uint64_t idx;
      if (spec.insert_new) {
        idx = ks.insert_base() + static_cast<uint64_t>(conn) +
              conns * cursor->next_insert++;
      } else {
        idx = draw_index();
        idx = idx - idx % conns + static_cast<uint64_t>(conn);
        if (idx >= ks.preload) idx -= conns;
      }
      op.key = 2 * idx;
      op.arg = EncodeValue(op.key, cursor->next_version++);
    }
    out->push_back(op);
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  // The epsilon keeps q * n from rounding one rank up (0.99 * 1000).
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

LatencySummary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  LatencySummary s;
  s.count = samples->size();
  s.p50 = Percentile(*samples, 0.50);
  // Nearest rank puts ceil(q n) samples at or below the q-th percentile;
  // the rest lie beyond it. Report it only when at least ten do.
  s.p90_valid = s.count >= (90 * s.count + 99) / 100 + 10;
  s.p90 = s.p90_valid ? Percentile(*samples, 0.90) : 0;
  s.p99_valid = s.count >= (99 * s.count + 99) / 100 + 10;
  s.p99 = s.p99_valid ? Percentile(*samples, 0.99) : 0;
  return s;
}

std::string FormatWithCount(double value, const char* unit, uint64_t n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.4f %s (n=%llu)", value, unit,
                static_cast<unsigned long long>(n));
  return buf;
}

OpenLoopResult RunOpenLoop(uint64_t count, uint64_t start_ns,
                           uint64_t interval_ns,
                           const std::function<uint64_t()>& now_ns,
                           const std::function<void(uint64_t)>& wait_until_ns,
                           const std::function<void(uint64_t)>& execute) {
  OpenLoopResult r;
  r.latency_us.reserve(count);
  r.lag_us.reserve(count);
  uint64_t prev_done = start_ns;
  for (uint64_t k = 0; k < count; ++k) {
    const uint64_t due = start_ns + k * interval_ns;
    if (now_ns() < due) wait_until_ns(due);
    const uint64_t sent = now_ns();
    execute(k);
    const uint64_t done = now_ns();
    r.latency_us.push_back(static_cast<double>(done - due) / 1e3);
    const uint64_t free_at = std::max(due, prev_done);
    r.lag_us.push_back(
        sent > free_at ? static_cast<double>(sent - free_at) / 1e3 : 0.0);
    prev_done = done;
  }
  return r;
}

}  // namespace perfbench
