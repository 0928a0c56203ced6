#include "lsm/block_cache.h"

#include <algorithm>

namespace endure::lsm {

namespace {

/// splitmix64's finalizer: a bijective mix whose every output bit depends
/// on every input bit, so both 32-bit halves of a hash are usable.
inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t BlockCache::Hash(const SegmentKey& k) {
  return Mix(k.store_id * 0x9e3779b97f4a7c15ULL ^ k.segment);
}

uint64_t BlockCache::Hash(const CacheKey& k) {
  return Mix(Hash(k.segment_key()) + k.page);
}

// ------------------------------------------------------------ FlatIndex --

void BlockCache::FlatIndex::Reserve(size_t n) {
  size_t cap = 16;
  while (cap < 2 * n) cap *= 2;
  if (cap <= cells_.size()) return;
  std::vector<Cell> old(cap);
  old.swap(cells_);
  mask_ = cap - 1;
  size_ = 0;
  for (const Cell& c : old) {
    if (c.slot != kNil) Insert(c.hash, c.slot);
  }
}

void BlockCache::FlatIndex::Insert(uint32_t hash, uint32_t slot) {
  ENDURE_DCHECK(2 * (size_ + 1) <= cells_.size());
  size_t i = hash & mask_;
  while (cells_[i].slot != kNil) i = (i + 1) & mask_;
  cells_[i] = Cell{hash, slot};
  ++size_;
}

size_t BlockCache::FlatIndex::Locate(uint32_t hash, uint32_t slot) const {
  size_t i = hash & mask_;
  while (cells_[i].slot != slot) {
    ENDURE_DCHECK(cells_[i].slot != kNil);
    i = (i + 1) & mask_;
  }
  return i;
}

void BlockCache::FlatIndex::Erase(uint32_t hash, uint32_t slot) {
  // Backward shift: pull each later cell of the probe run into the hole
  // unless its home lies cyclically in (hole, cell], where moving it
  // would put it before its home.
  size_t hole = Locate(hash, slot);
  for (size_t j = (hole + 1) & mask_; cells_[j].slot != kNil;
       j = (j + 1) & mask_) {
    const size_t home = cells_[j].hash & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole] = Cell{};
  --size_;
}

// ----------------------------------------------------------- BlockCache --

BlockCache::BlockCache(uint64_t capacity_bytes, int num_shards)
    : shards_(static_cast<size_t>(std::max(1, num_shards))),
      capacity_(capacity_bytes) {}

bool BlockCache::Lookup(uint64_t store_id, SegmentId segment,
                        uint64_t page_idx, PageBuffer* out) {
  if (capacity() == 0 || out == nullptr) return false;
  const CacheKey key{store_id, segment, page_idx};
  const uint64_t hash = Hash(key);
  Shard& s = ShardFor(hash);
  std::lock_guard<std::mutex> lock(s.mu);
  const uint32_t idx = s.pages.Find(
      static_cast<uint32_t>(hash),
      [&](uint32_t i) { return s.slots[i].key == key; });
  if (idx == kNil) return false;
  Slot& slot = s.slots[idx];
  slot.referenced = true;
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
  const uint64_t hash = Hash(key);
  Shard& s = ShardFor(hash);
  std::lock_guard<std::mutex> lock(s.mu);
  const uint32_t hit = s.pages.Find(
      static_cast<uint32_t>(hash),
      [&](uint32_t i) { return s.slots[i].key == key; });
  if (hit != kNil) {
    // Already resident (two readers raced the same miss). Pages are
    // immutable, so the resident copy is already right: only mark it used.
    s.slots[hit].referenced = true;
    return;
  }
  EvictToFit(s, bytes, stats);
  uint32_t idx;
  if (!s.free_slots.empty()) {
    idx = s.free_slots.back();
    s.free_slots.pop_back();
    s.spare_bytes -= SlotBytes(s.slots[idx].entries.capacity());
  } else if (!s.bare_slots.empty()) {
    idx = s.bare_slots.back();
    s.bare_slots.pop_back();
  } else {
    idx = NewSlot(s);
  }
  Slot& slot = s.slots[idx];
  slot.key = key;
  slot.entries.assign(entries, entries + count);  // reuses the capacity
  slot.referenced = false;
  slot.valid = true;
  s.pages.Insert(static_cast<uint32_t>(hash), idx);
  // Push onto the front of the segment's list.
  const SegmentKey seg = key.segment_key();
  const uint32_t seg_hash = static_cast<uint32_t>(Hash(seg));
  const uint32_t head = s.segments.Find(seg_hash, [&](uint32_t i) {
    return s.slots[i].key.segment_key() == seg;
  });
  slot.prev = kNil;
  slot.next = head;
  if (head == kNil) {
    s.segments.Insert(seg_hash, idx);
  } else {
    s.slots[head].prev = idx;
    s.segments.Replace(seg_hash, head, idx);
  }
  s.usage_bytes += bytes;
}

uint32_t BlockCache::NewSlot(Shard& s) {
  ENDURE_CHECK_MSG(s.slots.size() < kNil, "block cache shard is full");
  const uint32_t idx = static_cast<uint32_t>(s.slots.size());
  s.slots.emplace_back();
  // Every table and free list is sized for the whole ring, so only ring
  // growth allocates.
  s.pages.Reserve(s.slots.size());
  s.segments.Reserve(s.slots.size());
  s.free_slots.reserve(s.slots.capacity());
  s.bare_slots.reserve(s.slots.capacity());
  return idx;
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
    const uint32_t idx = static_cast<uint32_t>(s.hand);
    if (++s.hand == s.slots.size()) s.hand = 0;
    ++scanned;
    Slot& victim = s.slots[idx];
    if (!victim.valid) continue;
    if (victim.referenced) {
      victim.referenced = false;  // second chance
      continue;
    }
    Unlink(s, idx);
    Free(s, idx);
    if (stats != nullptr) ++stats->cache_evictions;
  }
}

void BlockCache::Unlink(Shard& s, uint32_t idx) {
  Slot& slot = s.slots[idx];
  if (slot.prev != kNil) {
    s.slots[slot.prev].next = slot.next;
  } else {
    // idx heads its segment's list.
    const uint32_t seg_hash =
        static_cast<uint32_t>(Hash(slot.key.segment_key()));
    if (slot.next != kNil) {
      s.segments.Replace(seg_hash, idx, slot.next);
    } else {
      s.segments.Erase(seg_hash, idx);
    }
  }
  if (slot.next != kNil) s.slots[slot.next].prev = slot.prev;
}

void BlockCache::Free(Shard& s, uint32_t idx) {
  Slot& slot = s.slots[idx];
  s.usage_bytes -= SlotBytes(slot.entries.size());
  s.pages.Erase(static_cast<uint32_t>(Hash(slot.key)), idx);
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
  // share through one table probe and the segment's own list.
  const SegmentKey seg{store_id, segment};
  const uint32_t seg_hash = static_cast<uint32_t>(Hash(seg));
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    const uint32_t head = s.segments.Find(seg_hash, [&](uint32_t i) {
      return s.slots[i].key.segment_key() == seg;
    });
    if (head == kNil) continue;
    s.segments.Erase(seg_hash, head);
    for (uint32_t idx = head; idx != kNil;) {
      const uint32_t next = s.slots[idx].next;
      Free(s, idx);
      idx = next;
    }
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
