#include "lsm/block_cache.h"

#include <algorithm>

namespace endure::lsm {

BlockCache::BlockCache(uint64_t capacity_bytes, int num_shards)
    : shards_(static_cast<size_t>(std::max(1, num_shards))),
      capacity_(capacity_bytes) {}

bool BlockCache::Lookup(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, PageBuffer* out) {
  if (capacity() == 0 || out == nullptr) return false;
  const CacheKey key{store_id, segment, page_idx};
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  Slot& slot = *s.slots[it->second];
  slot.referenced.store(true, std::memory_order_relaxed);
  out->Reserve(slot.entries.size());
  std::copy(slot.entries.begin(), slot.entries.end(), out->data());
  out->set_size(slot.entries.size());
  return true;
}

void BlockCache::Insert(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, const Entry* entries, size_t count,
                        Statistics* stats) {
  if (capacity() == 0 || count == 0) return;
  const uint64_t bytes = SlotBytes(count);
  if (bytes > PerShardCapacity()) return;  // would evict the whole shard
  const CacheKey key{store_id, segment, page_idx};
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Already resident (two readers raced the same miss). Pages are
    // immutable, so the resident copy is already right: only mark it used.
    s.slots[it->second]->referenced.store(true, std::memory_order_relaxed);
    return;
  }
  EvictToFit(s, bytes, stats);
  size_t idx;
  if (!s.free_slots.empty()) {
    idx = s.free_slots.back();
    s.free_slots.pop_back();
    s.spare_bytes -= SlotBytes(s.slots[idx]->entries.capacity());
  } else if (!s.bare_slots.empty()) {
    idx = s.bare_slots.back();
    s.bare_slots.pop_back();
  } else {
    idx = s.slots.size();
    s.slots.push_back(std::make_unique<Slot>());
  }
  Slot& slot = *s.slots[idx];
  slot.key = key;
  slot.entries.assign(entries, entries + count);  // reuses the capacity
  slot.referenced.store(false, std::memory_order_relaxed);
  slot.valid = true;
  s.index.emplace(key, idx);
  // Push onto the front of the segment's list.
  auto [head, fresh] = s.segments.try_emplace(key.segment_key(), idx);
  slot.prev = kNil;
  slot.next = fresh ? kNil : head->second;
  if (!fresh) {
    s.slots[head->second]->prev = idx;
    head->second = idx;
  }
  s.usage_bytes += bytes;
}

void BlockCache::EvictToFit(Shard& s, uint64_t need, Statistics* stats) {
  const uint64_t bound = PerShardCapacity();
  if (s.slots.empty()) return;
  // Two sweeps clear every reference bit and reach every victim; bail out
  // after that even if the bound is still exceeded (capacity may have been
  // shrunk below one page).
  size_t scanned = 0;
  const size_t limit = 2 * s.slots.size();
  while (s.usage_bytes + need > bound && scanned < limit) {
    const size_t idx = s.hand;
    s.hand = (s.hand + 1) % s.slots.size();
    ++scanned;
    Slot& victim = *s.slots[idx];
    if (!victim.valid) continue;
    if (victim.referenced.exchange(false, std::memory_order_relaxed)) {
      continue;  // second chance
    }
    Unlink(s, idx);
    Free(s, idx);
    if (stats != nullptr) ++stats->cache_evictions;
  }
}

void BlockCache::Unlink(Shard& s, size_t idx) {
  Slot& slot = *s.slots[idx];
  if (slot.prev != kNil) {
    s.slots[slot.prev]->next = slot.next;
  } else if (slot.next != kNil) {
    s.segments[slot.key.segment_key()] = slot.next;
  } else {
    s.segments.erase(slot.key.segment_key());
  }
  if (slot.next != kNil) s.slots[slot.next]->prev = slot.prev;
}

void BlockCache::Free(Shard& s, size_t idx) {
  Slot& slot = *s.slots[idx];
  s.usage_bytes -= SlotBytes(slot.entries.size());
  s.index.erase(slot.key);
  slot.entries.clear();
  slot.valid = false;
  const uint64_t spare = SlotBytes(slot.entries.capacity());
  if (s.usage_bytes + s.spare_bytes + spare <= PerShardCapacity()) {
    s.spare_bytes += spare;
    s.free_slots.push_back(idx);
  } else {
    std::vector<Entry>().swap(slot.entries);
    s.bare_slots.push_back(idx);
  }
}

void BlockCache::EraseSegment(uint64_t store_id, SegmentId segment) {
  // A segment's pages hash across every shard, but each shard reaches its
  // share through one map lookup and the segment's own list.
  const SegmentKey seg{store_id, segment};
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto head = s.segments.find(seg);
    if (head == s.segments.end()) continue;
    for (size_t idx = head->second; idx != kNil;) {
      const size_t next = s.slots[idx]->next;
      Free(s, idx);
      idx = next;
    }
    s.segments.erase(head);
  }
}

uint64_t BlockCache::usage() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.usage_bytes;
  }
  return total;
}

ArbiterSplit ArbitrateMemory(uint64_t budget_bytes, uint64_t reads,
                             uint64_t writes, uint64_t min_buffer_bytes) {
  ArbiterSplit split;
  if (budget_bytes == 0) return split;
  const uint64_t total_ops = reads + writes;
  // No signal yet: split evenly.
  double read_share = total_ops == 0
                          ? 0.5
                          : static_cast<double>(reads) /
                                static_cast<double>(total_ops);
  read_share = std::clamp(read_share, 1.0 / 8.0, 7.0 / 8.0);
  uint64_t cache = static_cast<uint64_t>(
      static_cast<double>(budget_bytes) * read_share);
  // The buffers keep their floor even when the mix is read-only.
  if (budget_bytes - cache < min_buffer_bytes) {
    cache = budget_bytes > min_buffer_bytes ? budget_bytes - min_buffer_bytes
                                            : 0;
  }
  split.cache_bytes = cache;
  split.buffer_bytes = budget_bytes - cache;
  return split;
}

}  // namespace endure::lsm
