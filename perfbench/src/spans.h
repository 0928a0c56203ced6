// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// In-memory span tracing for the traced run. A span is (name, start,
// end, parent span, request id); the benchmark records one around each
// call it makes into a layer's public API. Each thread records into its
// own SpanLog (no locking on the hot path); the recorder gathers them at
// the end, writes them out, and computes self time per span name — a
// span's duration minus the part of it its child spans cover.
//
// With tracing off the benchmark passes a null SpanLog*, and ScopedSpan
// records nothing.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  ///< static string
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanRecorder;

/// One thread's spans. Not thread-safe: one log per thread.
class SpanLog {
 public:
  explicit SpanLog(SpanRecorder* recorder) : recorder_(recorder) {}
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;
  SpanRecorder* recorder_;
  std::vector<Span> spans_;
  uint64_t current_ = 0;  ///< innermost open span (parent of the next)
};

class SpanRecorder {
 public:
  /// A new log owned by the recorder; the pointer stays valid for the
  /// recorder's lifetime.
  SpanLog* NewLog();
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Every span recorded so far (call once the recording threads joined).
  std::vector<Span> All() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;  ///< guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// Records a span for its scope into `log`; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Per-name totals: count, summed duration and summed self time.
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans);

/// Durations in microseconds of every span called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

/// Writes spans as tab-separated lines: name id parent request_id
/// start_ns end_ns. Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
