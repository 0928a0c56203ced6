// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// A deployment-wide sharded block cache over PageStore pages, plus the
// memory-arbitration policy that splits one global byte budget between the
// write buffers and the cache ("Breaking Down Memory Walls", PAPERS.md).
//
// The cache holds decoded pages (Entry arrays) keyed by
// (store, segment, page). Hits copy the page out into the caller's
// PageBuffer, so cached data is never borrowed: eviction can drop a slot
// while a previous hit's copy is still in use. Admission is the
// responsibility of the page store and happens only for pages that passed
// whatever integrity verification the read performed (checksum-verified
// admission) and only for point/range-query reads — compaction, flush and
// recovery I/O bypasses the cache entirely so the page-exact accounting
// those paths are tested against stays deterministic.
//
// Eviction is clock (second chance) per cache shard: hits set a reference
// bit; inserts advance the clock hand. Both run under the shard lock.
// Sharding by key hash keeps the per-shard critical sections short and
// uncontended, which is what the lock-free read path needs from its only
// remaining shared structure.
//
// Costs. Lookup, Insert and each eviction are O(1): no step searches. Each
// shard indexes its slots through two flat open-addressing tables (page
// key -> slot, and (store, segment) -> head slot of that segment's
// resident pages); a cell is a 32-bit hash plus a slot number and the key
// is compared in the slot. Every shard threads an intrusive doubly linked
// list through the slots of each resident segment, so EraseSegment visits
// one table cell per shard plus that segment's resident pages — never the
// whole index, however large the cache is. The tables are sized from the
// shard's slot count and only grow when the slot ring does, so admission
// and eviction in steady state allocate nothing.
//
// Buffer reuse. An evicted or erased slot keeps its page buffer as a spare
// for the next Insert, so steady-state admission does no heap work that
// scales with the page payload. Spares count against the capacity like
// resident pages: a slot freed while resident plus spare bytes would
// exceed the per-shard share releases its buffer instead, so after the
// arbiter shrinks the cache the excess goes back to the allocator as
// pages are admitted. usage() counts resident pages only and drops as
// soon as a page is evicted or erased.

#ifndef ENDURE_LSM_BLOCK_CACHE_H_
#define ENDURE_LSM_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "lsm/page_store.h"
#include "lsm/statistics.h"
#include "util/macros.h"

namespace endure::lsm {

class BlockCache {
 public:
  /// `capacity_bytes` bounds the decoded-page payload held across all
  /// cache shards (0 = every lookup misses and nothing is admitted).
  explicit BlockCache(uint64_t capacity_bytes, int num_shards = 16);
  ENDURE_DISALLOW_COPY_AND_ASSIGN(BlockCache);

  /// Hands out a deployment-unique store id. SegmentIds are only unique
  /// within one PageStore, so every store that feeds the cache registers
  /// itself and keys its pages under the returned id.
  uint64_t RegisterStore() {
    return next_store_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copies the cached page into `out` and returns true on a hit. The
  /// caller owns the copy; eviction never invalidates it.
  bool Lookup(uint64_t store_id, SegmentId segment, uint64_t page_idx,
              PageBuffer* out);

  /// Admits one decoded page, evicting via the clock hand to fit. The
  /// caller must only admit pages it verified (CRC-checked, or from a
  /// backend that cannot rot). Evictions are counted against `stats`
  /// (nullable).
  void Insert(uint64_t store_id, SegmentId segment, uint64_t page_idx,
              const Entry* entries, size_t count, Statistics* stats);

  /// Drops every cached page of (store_id, segment). Called by
  /// PageStore::FreeSegment so a recycled SegmentId can never resurrect a
  /// dead segment's pages.
  void EraseSegment(uint64_t store_id, SegmentId segment);

  /// Retargets the byte capacity (memory arbiter). Shards evict down to
  /// the new bound on their next insert; shrinking does not synchronously
  /// drop pages.
  void set_capacity(uint64_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Current decoded-payload bytes resident across all shards.
  uint64_t usage() const;

 private:
  struct SegmentKey {
    uint64_t store_id = 0;
    SegmentId segment = 0;
    bool operator==(const SegmentKey& o) const {
      return store_id == o.store_id && segment == o.segment;
    }
  };
  struct CacheKey {
    uint64_t store_id = 0;
    SegmentId segment = 0;
    uint64_t page = 0;
    bool operator==(const CacheKey& o) const {
      return store_id == o.store_id && segment == o.segment && page == o.page;
    }
    SegmentKey segment_key() const { return SegmentKey{store_id, segment}; }
  };
  static uint64_t Hash(const SegmentKey& k);
  static uint64_t Hash(const CacheKey& k);

  /// Slot number meaning "no slot" (list ends, empty table cells).
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Open-addressing map from a 32-bit key hash to a slot number:
  /// power-of-two capacity, linear probing, backward-shift deletion (no
  /// tombstones). Keys live in the slots, so Find compares them through a
  /// caller predicate. The capacity changes only in Reserve.
  class FlatIndex {
   public:
    FlatIndex() { Reserve(0); }
    /// Rebuilds for at least `n` entries at load factor <= 1/2.
    void Reserve(size_t n);
    /// First slot filed under `hash` that satisfies `match`, or kNil.
    template <typename Match>
    uint32_t Find(uint32_t hash, const Match& match) const {
      for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const Cell& c = cells_[i];
        if (c.slot == kNil) return kNil;
        if (c.hash == hash && match(c.slot)) return c.slot;
      }
    }
    /// Files `slot` under `hash`; the caller knows its key is absent.
    void Insert(uint32_t hash, uint32_t slot);
    /// Re-points the cell filed as (hash, from) at slot `to`.
    void Replace(uint32_t hash, uint32_t from, uint32_t to) {
      cells_[Locate(hash, from)].slot = to;
    }
    /// Drops the cell filed as (hash, slot).
    void Erase(uint32_t hash, uint32_t slot);

   private:
    struct Cell {
      uint32_t hash = 0;
      uint32_t slot = kNil;  ///< kNil: empty
    };
    size_t Locate(uint32_t hash, uint32_t slot) const;
    std::vector<Cell> cells_;
    size_t mask_ = 0;
    size_t size_ = 0;
  };

  struct Slot {
    CacheKey key;
    /// Page payload. A free slot may keep its capacity as a spare.
    std::vector<Entry> entries;
    /// Neighbours in the list of key's segment (set on Insert).
    uint32_t prev = kNil;
    uint32_t next = kNil;
    /// Second-chance bit: set on hit, cleared by the hand.
    bool referenced = false;
    bool valid = false;
  };

  struct Shard {
    mutable std::mutex mu;
    FlatIndex pages;     ///< page key -> slot
    FlatIndex segments;  ///< (store, segment) -> head slot of its list
    std::vector<Slot> slots;           ///< clock ring
    std::vector<uint32_t> free_slots;  ///< free, buffer kept as a spare
    std::vector<uint32_t> bare_slots;  ///< free, buffer released
    size_t hand = 0;
    uint64_t usage_bytes = 0;
    uint64_t spare_bytes = 0;  ///< buffer capacity held by free_slots
  };

  /// Cache shard of a key hash (multiply-shift over the high half; the
  /// low half files the key inside the shard's index).
  Shard& ShardFor(uint64_t hash) {
    return shards_[((hash >> 32) * shards_.size()) >> 32];
  }
  /// Appends a slot to the ring, growing the indexes with it. Shard lock
  /// held.
  static uint32_t NewSlot(Shard& s);
  /// Evicts clock-style until `need` more bytes fit under the per-shard
  /// share of capacity. Shard lock held.
  void EvictToFit(Shard& s, uint64_t need, Statistics* stats);
  /// Unlinks slot `idx` from its segment's list in O(1), dropping the
  /// segment's table cell with its last page. Shard lock held.
  static void Unlink(Shard& s, uint32_t idx);
  /// Drops slot `idx` from the key index and the usage count and returns
  /// it to a free list, keeping its buffer as a spare if that fits under
  /// the per-shard share. The caller unlinks it first (or frees the whole
  /// list). Shard lock held.
  void Free(Shard& s, uint32_t idx);
  uint64_t PerShardCapacity() const {
    return capacity() / shards_.size();
  }
  static uint64_t SlotBytes(size_t count) {
    return static_cast<uint64_t>(count) * sizeof(Entry);
  }

  std::vector<Shard> shards_;
  std::atomic<uint64_t> capacity_;
  std::atomic<uint64_t> next_store_id_{1};
};

/// The memory arbiter's split decision: how one global budget divides
/// between the block cache and the write buffers.
struct ArbiterSplit {
  uint64_t cache_bytes = 0;
  uint64_t buffer_bytes = 0;
};

/// Splits `budget_bytes` proportionally to the observed read share of the
/// recent operation mix (`reads` point+range lookups vs `writes` in the
/// observation window), clamped so neither side starves: the cache share
/// stays within [1/8, 7/8] of the budget and the buffers keep at least
/// `min_buffer_bytes`. Pure function — the ShardedDB arbiter applies it,
/// tests pin its behaviour.
ArbiterSplit ArbitrateMemory(uint64_t budget_bytes, uint64_t reads,
                             uint64_t writes, uint64_t min_buffer_bytes);

}  // namespace endure::lsm

#endif  // ENDURE_LSM_BLOCK_CACHE_H_
