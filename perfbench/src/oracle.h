// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// Answer and durability oracle for the load generator. It knows the
// key layout of KeySpace and the value encoding of EncodeValue:
//  - preloaded (even) keys are always found, odd keys never;
//  - a key a connection owns returns that connection's last acked value
//    (only the owner writes a key, so this is exact);
//  - a key owned by another connection holds its preload value or a
//    value tagged for that key by a write;
//  - a scan is strictly ascending, stays in [lo, hi) and holds every
//    preloaded key of the range;
//  - after a crash and reopen, every acked write reads back with its
//    last acked value (CheckFullState).
//
// Threading: connection c's thread is the only caller of the per-
// connection methods for c during a run; CheckFullState runs after all
// connection threads have joined.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "loadgen.h"

namespace perfbench {

using KV = std::pair<uint64_t, uint64_t>;

class Oracle {
 public:
  explicit Oracle(const KeySpace& ks);

  /// Connection `conn` got an ack for PUT key -> value.
  void OnPutAck(int conn, uint64_t key, uint64_t value);
  /// A PUT by `conn` failed or its ack was lost: the key's value is
  /// unknown from now on (still checked against the tag rule).
  void OnPutUnknown(int conn, uint64_t key);

  /// Checks a GET answer seen by `conn`. On a wrong answer returns false
  /// and describes it in *why.
  bool CheckGet(int conn, uint64_t key, std::optional<uint64_t> value,
                std::string* why) const;
  /// Checks a SCAN [lo, hi) answer seen by `conn`.
  bool CheckScan(int conn, uint64_t lo, uint64_t hi,
                 const std::vector<KV>& entries, std::string* why) const;
  /// Durability: `all` is a sorted dump of the whole deployment. Every
  /// preloaded key is present, no odd key is, every acked write holds its
  /// last acked value and every other value passes the tag rule.
  bool CheckFullState(const std::vector<KV>& all, std::string* why) const;

  /// Live entries the deployment must hold: preload + distinct inserted
  /// keys acked so far.
  uint64_t LiveEntries() const;
  /// Some key of `conn`'s with a known expected value (for the first
  /// GET after a reopen) and that value; nullopt for "not found".
  std::pair<uint64_t, std::optional<uint64_t>> ProbeKey(int conn) const;

 private:
  struct ConnState {
    std::unordered_map<uint64_t, uint64_t> acked;  ///< key -> last acked
    std::unordered_set<uint64_t> unknown;
  };
  /// The exact expected answer for `key` when `conn` owns it and the
  /// value is known; `known` false otherwise.
  std::optional<uint64_t> Expected(int conn, uint64_t key, bool* known) const;
  /// Value shape check that holds for any reader.
  bool Plausible(uint64_t key, std::optional<uint64_t> value) const;

  KeySpace ks_;
  std::vector<ConnState> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
