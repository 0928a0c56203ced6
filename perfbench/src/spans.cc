// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

namespace perfbench {

SpanLog* SpanRecorder::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(this));
  return logs_.back().get();
}

std::vector<Span> SpanRecorder::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t request_id)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->recorder_->NextId();
  span_.parent = log_->current_;
  span_.request_id = request_id;
  log_->current_ = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  log_->current_ = span_.parent;
  log_->spans_.push_back(span_);
}

std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const uint64_t a = std::max(c->start_ns, s.start_ns);
        const uint64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : iv) {
      const uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - std::min(dur, covered)) / 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& kv : by_name) out.push_back(kv.second);
  return out;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\trequest_id\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
