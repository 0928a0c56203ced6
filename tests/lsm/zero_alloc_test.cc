// Pins the zero-allocation guarantee of the buffered read path: after
// warm-up, a point lookup on either backend must perform no heap
// allocations at all, even with a block cache that churns on every miss.
// Lives in its own test binary
// because it replaces the global allocator to count allocations.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/sharded_db.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_big_frees{0};
std::atomic<bool> g_counting{false};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Frees of blocks this large are page payloads in these tests: the
/// measured legs neither grow nor free a cache index.
constexpr std::size_t kBigBlock = 1024;

void CountFree(void* p) {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed) &&
      malloc_usable_size(p) >= kBigBlock) {
    g_big_frees.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  CountFree(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  CountFree(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  CountFree(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  CountFree(p);
  std::free(p);
}

namespace endure::lsm {
namespace {

class AllocationScope {
 public:
  AllocationScope() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_big_frees.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationScope() { g_counting.store(false, std::memory_order_relaxed); }
  uint64_t allocations() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
  uint64_t big_frees() const {
    return g_big_frees.load(std::memory_order_relaxed);
  }
};

Options ReadOpts() {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 64;
  o.entries_per_page = 8;
  o.filter_bits_per_entry = 8.0;
  return o;
}

/// File-backend options in a fresh per-test directory. The store is not
/// persistent, so its segment files go when the DB closes.
Options FileOpts(const std::string& name) {
  Options o = ReadOpts();
  o.backend = StorageBackend::kFile;
  o.storage_dir = "/tmp/endure_zero_alloc_test_" + name;
  std::filesystem::remove_all(o.storage_dir);
  return o;
}

std::unique_ptr<ShardedDB> LoadedDb(uint64_t n, const Options& o = ReadOpts()) {
  auto db = ShardedDB::Open(o);
  EXPECT_TRUE(db.ok());
  std::vector<std::pair<Key, Value>> pairs;
  for (uint64_t i = 0; i < n; ++i) pairs.emplace_back(2 * i, i);
  EXPECT_TRUE((*db)->BulkLoad(pairs).ok());
  return std::move(db).value();
}

TEST(ZeroAllocTest, PointLookupsAllocateNothing) {
  auto db = LoadedDb(20000);
  // Warm up: every run's page scratch is allocated at construction, but
  // touch the path once anyway before counting.
  for (Key k = 0; k < 64; ++k) {
    db->Get(2 * k);
    db->Get(2 * k + 1);
  }
  uint64_t hits = 0;
  uint64_t allocs = 0;
  {
    AllocationScope scope;
    for (Key k = 0; k < 2000; ++k) {
      hits += db->Get((2 * k * 7) % 40000).has_value() ? 1 : 0;
      db->Get(2 * k + 1);  // guaranteed miss
    }
    allocs = scope.allocations();
  }
  EXPECT_EQ(allocs, 0u) << "buffered Get path must not allocate";
  EXPECT_EQ(hits, 2000u);
}

TEST(ZeroAllocTest, FileBackendPointLookupsAllocateNothing) {
  // Cache off: every page a lookup touches is a pread into pooled scratch.
  Options o = FileOpts("uncached");
  o.block_cache_bytes = 0;
  auto db = LoadedDb(20000, o);
  for (Key k = 0; k < 64; ++k) {
    db->Get(2 * k);
    db->Get(2 * k + 1);
  }
  const uint64_t reads_before = db->TotalStats().point_pages_read.load();
  uint64_t hits = 0;
  uint64_t allocs = 0;
  {
    AllocationScope scope;
    for (Key k = 0; k < 2000; ++k) {
      hits += db->Get((2 * k * 7) % 40000).has_value() ? 1 : 0;
      db->Get(2 * k + 1);
    }
    allocs = scope.allocations();
  }
  EXPECT_GT(db->TotalStats().point_pages_read.load(), reads_before)
      << "the lookups never reached the file";
  EXPECT_EQ(allocs, 0u) << "file-backend Get path must not allocate";
  EXPECT_EQ(hits, 2000u);
}

TEST(ZeroAllocTest, CacheChurnAllocatesNoPagePayload) {
  // A cache far below the working set: (nearly) every lookup misses,
  // admits its page and evicts another. Evicted slots keep their buffers
  // and the flat indexes are sized with the slot ring, so once the ring
  // is full, admission and eviction allocate nothing at all.
  Options o = FileOpts("cache_churn");
  o.entries_per_page = 32;
  o.block_cache_bytes = 64 * 1024;  // 64 pages of a 625-page working set
  auto db = LoadedDb(20000, o);
  auto lookups = [&db](Key from, Key count) {
    uint64_t hits = 0;
    for (Key k = from; k < from + count; ++k) {
      hits += db->Get((2 * k * 7919) % 40000).has_value() ? 1 : 0;
    }
    return hits;
  };
  lookups(0, 4000);  // fill the cache and every slot's buffer
  const uint64_t misses_before = db->TotalStats().cache_misses.load();
  const uint64_t evictions_before = db->TotalStats().cache_evictions.load();
  uint64_t hits = 0;
  uint64_t allocs = 0;
  {
    AllocationScope scope;
    hits = lookups(4000, 4000);
    allocs = scope.allocations();
  }
  const uint64_t admitted =
      db->TotalStats().cache_misses.load() - misses_before;
  const uint64_t evicted =
      db->TotalStats().cache_evictions.load() - evictions_before;
  EXPECT_EQ(hits, 4000u);
  ASSERT_GT(admitted, 2000u) << "the cache must churn for this leg to bite";
  EXPECT_GT(evicted, admitted / 2);
  EXPECT_EQ(allocs, 0u) << "steady-state cache churn allocates";
}

TEST(ZeroAllocTest, ShrunkCacheHandsSpareBuffersBack) {
  // Erasing a segment keeps its pages' buffers as spares, but spares count
  // against the capacity: once the cache is shrunk, admitting pages frees
  // the spares beyond the new bound instead of holding them for good.
  constexpr size_t kEntries = 32;
  constexpr uint64_t kPageBytes = kEntries * sizeof(Entry);
  static_assert(kPageBytes >= kBigBlock);
  constexpr uint64_t kPages = 256;
  BlockCache cache(kPages * kPageBytes);  // 16 shards
  const uint64_t store = cache.RegisterStore();
  std::vector<Entry> page(kEntries);
  uint64_t freed = 0;
  for (uint64_t p = 0; p < kPages / 2; ++p) {
    cache.Insert(store, p / 8, p % 8, page.data(), kEntries, nullptr);
  }
  {
    AllocationScope scope;
    for (SegmentId seg = 0; seg < kPages / 16; ++seg) {
      cache.EraseSegment(store, seg);
    }
    freed = scope.big_frees();
  }
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_EQ(freed, 0u) << "erase freed page buffers";

  cache.set_capacity(kPages / 8 * kPageBytes);  // 2 pages per shard
  {
    AllocationScope scope;
    for (uint64_t p = 0; p < 8 * kPages; ++p) {
      cache.Insert(store, 1000 + p / 8, p % 8, page.data(), kEntries, nullptr);
    }
    freed = scope.big_frees();
  }
  EXPECT_LE(cache.usage(), cache.capacity());
  // 128 buffers existed; at most 2 resident and 2 spare per shard remain.
  EXPECT_GE(freed, kPages / 2 - 16 * 4) << "spare buffers outlived the shrink";
}

TEST(ZeroAllocTest, ScanAllocationsAreBoundedByOutput) {
  auto db = LoadedDb(20000);
  (void)db->Scan(0, 200);  // warm up
  uint64_t allocs = 0;
  uint64_t returned = 0;
  {
    AllocationScope scope;
    for (int i = 0; i < 100; ++i) {
      const auto out = db->Scan(400 * i, 400 * i + 64).value();
      returned += out.size();
    }
    allocs = scope.allocations();
  }
  EXPECT_EQ(returned, 3200u);
  // Scans must allocate only iterator state and the result vector — a
  // small constant per qualifying run, not per page or per entry.
  EXPECT_LT(allocs, 100u * 40u)
      << "scan path allocates per page or per entry";
}

}  // namespace
}  // namespace endure::lsm
