// Copyright (c) endure-cpp authors. Licensed under the MIT license.

#include "oracle.h"

#include <algorithm>

namespace perfbench {

namespace {

bool Tagged(uint64_t key, uint64_t value) {
  return (value >> 32) >= 1 && (value & 0xffffffffull) == (key & 0xffffffffull);
}

std::string Describe(uint64_t key, std::optional<uint64_t> got) {
  return "key " + std::to_string(key) + " -> " +
         (got ? std::to_string(*got) : std::string("not found"));
}

}  // namespace

Oracle::Oracle(const KeySpace& ks) : ks_(ks), conns_(ks.conns) {}

void Oracle::OnPutAck(int conn, uint64_t key, uint64_t value) {
  conns_[conn].acked[key] = value;
}

void Oracle::OnPutUnknown(int conn, uint64_t key) {
  conns_[conn].unknown.insert(key);
}

std::optional<uint64_t> Oracle::Expected(int conn, uint64_t key,
                                         bool* known) const {
  *known = true;
  if (key % 2 == 1) return std::nullopt;
  const ConnState& st = conns_[conn];
  if (ks_.Owner(key) != conn || st.unknown.count(key) > 0) {
    *known = false;
    return std::nullopt;
  }
  const auto it = st.acked.find(key);
  if (it != st.acked.end()) return it->second;
  if (key / 2 < ks_.preload) return key / 2;
  return std::nullopt;
}

bool Oracle::Plausible(uint64_t key, std::optional<uint64_t> value) const {
  if (key % 2 == 1) return !value.has_value();
  if (key / 2 < ks_.preload) {
    return value.has_value() && (*value == key / 2 || Tagged(key, *value));
  }
  return !value.has_value() || Tagged(key, *value);
}

bool Oracle::CheckGet(int conn, uint64_t key, std::optional<uint64_t> value,
                      std::string* why) const {
  bool known = false;
  const std::optional<uint64_t> want = Expected(conn, key, &known);
  const bool ok = known ? value == want : Plausible(key, value);
  if (!ok) {
    *why = "GET " + Describe(key, value) + ", want " +
           (known ? Describe(key, want) : std::string("a plausible value"));
  }
  return ok;
}

bool Oracle::CheckScan(int conn, uint64_t lo, uint64_t hi,
                       const std::vector<KV>& entries,
                       std::string* why) const {
  uint64_t preloaded = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const uint64_t k = entries[i].first;
    if (k < lo || k >= hi) {
      *why = "SCAN [" + std::to_string(lo) + "," + std::to_string(hi) +
             ") returned out-of-range key " + std::to_string(k);
      return false;
    }
    if (i > 0 && k <= entries[i - 1].first) {
      *why = "SCAN result not strictly ascending at key " + std::to_string(k);
      return false;
    }
    if (!CheckGet(conn, k, entries[i].second, why)) {
      *why = "SCAN " + *why;
      return false;
    }
    if (k / 2 < ks_.preload) ++preloaded;
  }
  // Preloaded (even) keys in [lo, hi): indices ceil(lo/2) .. ceil(hi/2)-1.
  const uint64_t first = (lo + 1) / 2;
  const uint64_t last = std::min((hi + 1) / 2, ks_.preload);
  const uint64_t want = last > first ? last - first : 0;
  if (preloaded != want) {
    *why = "SCAN [" + std::to_string(lo) + "," + std::to_string(hi) +
           ") holds " + std::to_string(preloaded) + " preloaded keys, want " +
           std::to_string(want);
    return false;
  }
  return true;
}

bool Oracle::CheckFullState(const std::vector<KV>& all,
                            std::string* why) const {
  uint64_t preloaded = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const uint64_t k = all[i].first;
    if (i > 0 && k <= all[i - 1].first) {
      *why = "dump not strictly ascending at key " + std::to_string(k);
      return false;
    }
    if (!CheckGet(ks_.Owner(k), k, all[i].second, why)) return false;
    if (k % 2 == 0 && k / 2 < ks_.preload) ++preloaded;
  }
  if (preloaded != ks_.preload) {
    *why = "dump holds " + std::to_string(preloaded) + " of " +
           std::to_string(ks_.preload) + " preloaded keys";
    return false;
  }
  // Every acked write must be present (CheckGet above only judged keys
  // that are there; a lost insert is a missing key).
  for (const ConnState& st : conns_) {
    for (const auto& [key, value] : st.acked) {
      if (st.unknown.count(key) > 0) continue;
      const auto it = std::lower_bound(
          all.begin(), all.end(), key,
          [](const KV& e, uint64_t k) { return e.first < k; });
      if (it == all.end() || it->first != key || it->second != value) {
        *why = "lost acked write: " +
               Describe(key, it != all.end() && it->first == key
                                 ? std::optional<uint64_t>(it->second)
                                 : std::nullopt) +
               ", acked " + std::to_string(value);
        return false;
      }
    }
  }
  return true;
}

uint64_t Oracle::LiveEntries() const {
  uint64_t live = ks_.preload;
  for (const ConnState& st : conns_) {
    for (const auto& kv : st.acked) live += kv.first / 2 >= ks_.preload;
    for (uint64_t k : st.unknown) {
      live += k / 2 >= ks_.preload && st.acked.count(k) == 0;
    }
  }
  return live;
}

std::pair<uint64_t, std::optional<uint64_t>> Oracle::ProbeKey(int conn) const {
  const ConnState& st = conns_[conn];
  for (const auto& [key, value] : st.acked) {
    if (st.unknown.count(key) == 0) return {key, value};
  }
  // An untouched preloaded key the connection owns (index conn).
  const uint64_t key = 2 * static_cast<uint64_t>(conn);
  bool known = false;
  return {key, Expected(conn, key, &known)};
}

}  // namespace perfbench
