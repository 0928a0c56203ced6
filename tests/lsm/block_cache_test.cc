// Unit tests for the shared block cache and the memory-arbitration
// policy: lookup/admission/eviction semantics, segment erasure, live
// capacity retargeting, a seeded model check of random operation
// interleavings against a reference map, concurrent lookups racing
// inserts and erasures, the pure ArbitrateMemory split, and the
// engine-level knobs (Options validation, enable-after-open rule,
// arbiter-driven buffer retargeting).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/sharded_db.h"
#include "lsm/statistics.h"

namespace endure::lsm {
namespace {

std::vector<Entry> MakePage(Key base, size_t count) {
  std::vector<Entry> page;
  page.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    page.push_back(Entry{base + i, /*seq=*/1, base + i + 100,
                         EntryType::kValue});
  }
  return page;
}

TEST(BlockCacheTest, LookupMissThenHitCopiesOut) {
  BlockCache cache(/*capacity_bytes=*/1 << 20);
  const uint64_t store = cache.RegisterStore();
  PageBuffer buf;
  EXPECT_FALSE(cache.Lookup(store, /*segment=*/7, /*page_idx=*/0, &buf));

  const std::vector<Entry> page = MakePage(10, 4);
  cache.Insert(store, 7, 0, page.data(), page.size(), nullptr);
  ASSERT_TRUE(cache.Lookup(store, 7, 0, &buf));
  ASSERT_EQ(buf.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buf[i].key, page[i].key);
    EXPECT_EQ(buf[i].value, page[i].value);
  }
  EXPECT_EQ(cache.usage(), 4 * sizeof(Entry));
}

TEST(BlockCacheTest, StoresAreIsolatedBySegmentKey) {
  // Two stores may reuse the same SegmentId; the registered store id
  // keeps their pages apart.
  BlockCache cache(1 << 20);
  const uint64_t a = cache.RegisterStore();
  const uint64_t b = cache.RegisterStore();
  ASSERT_NE(a, b);
  const std::vector<Entry> page_a = MakePage(0, 2);
  const std::vector<Entry> page_b = MakePage(50, 3);
  cache.Insert(a, /*segment=*/1, /*page_idx=*/0, page_a.data(), 2, nullptr);
  cache.Insert(b, /*segment=*/1, /*page_idx=*/0, page_b.data(), 3, nullptr);
  PageBuffer buf;
  ASSERT_TRUE(cache.Lookup(a, 1, 0, &buf));
  EXPECT_EQ(buf.size(), 2u);
  ASSERT_TRUE(cache.Lookup(b, 1, 0, &buf));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(BlockCacheTest, EraseSegmentDropsAllItsPages) {
  BlockCache cache(1 << 20);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  for (uint64_t p = 0; p < 8; ++p) {
    cache.Insert(store, /*segment=*/3, p, page.data(), 4, nullptr);
    cache.Insert(store, /*segment=*/4, p, page.data(), 4, nullptr);
  }
  cache.EraseSegment(store, 3);
  PageBuffer buf;
  for (uint64_t p = 0; p < 8; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 3, p, &buf));
    EXPECT_TRUE(cache.Lookup(store, 4, p, &buf));
  }
  EXPECT_EQ(cache.usage(), 8 * 4 * sizeof(Entry));
}

TEST(BlockCacheTest, EvictsUnderCapacityPressure) {
  // Single cache shard so the clock behaviour is deterministic: capacity
  // for ~4 pages, insert 16, usage must stay bounded and evictions
  // counted.
  BlockCache cache(4 * 8 * sizeof(Entry), /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  Statistics stats;
  const std::vector<Entry> page = MakePage(0, 8);
  for (uint64_t p = 0; p < 16; ++p) {
    cache.Insert(store, 1, p, page.data(), 8, &stats);
  }
  EXPECT_LE(cache.usage(), 4 * 8 * sizeof(Entry));
  EXPECT_GT(stats.cache_evictions.load(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityAdmitsNothing) {
  BlockCache cache(0);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 4);
  cache.Insert(store, 1, 0, page.data(), 4, nullptr);
  PageBuffer buf;
  EXPECT_FALSE(cache.Lookup(store, 1, 0, &buf));
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(BlockCacheTest, SetCapacityRetargetsLive) {
  BlockCache cache(1 << 20, /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  const std::vector<Entry> page = MakePage(0, 8);
  for (uint64_t p = 0; p < 8; ++p) {
    cache.Insert(store, 1, p, page.data(), 8, nullptr);
  }
  const uint64_t full = cache.usage();
  ASSERT_EQ(full, 8 * 8 * sizeof(Entry));
  // Shrink to two pages: the next insert evicts down to the new bound.
  cache.set_capacity(2 * 8 * sizeof(Entry));
  cache.Insert(store, 2, 0, page.data(), 8, nullptr);
  EXPECT_LE(cache.usage(), 2 * 8 * sizeof(Entry));
}

// --- model checks ----------------------------------------------------------

/// Page (store, segment, page) at generation `gen` of its segment id: a
/// size of 1..8 entries and contents that differ per generation, so a page
/// served after its segment id was erased and reused would be caught.
std::vector<Entry> ModelPage(uint64_t store, SegmentId segment, uint64_t page,
                             uint64_t gen) {
  const uint64_t seed = ((store * 131 + segment) * 131 + page) * 131 + gen;
  return MakePage(seed * 16, 1 + seed % 8);
}

bool SamePage(const PageBuffer& buf, const std::vector<Entry>& page) {
  if (buf.size() != page.size()) return false;
  for (size_t i = 0; i < page.size(); ++i) {
    if (buf[i].key != page[i].key || buf[i].value != page[i].value) {
      return false;
    }
  }
  return true;
}

using ModelKey = std::tuple<uint64_t, SegmentId, uint64_t>;  // store, seg, page

TEST(BlockCacheModelTest, RandomInterleavingMatchesReferenceMap) {
  // Every step is one random Insert, Lookup, EraseSegment or set_capacity
  // over two stores x 6 segments x 32 pages spread across every shard.
  // The reference map tracks the pages that may be resident. Probing the
  // whole key space then checks that a hit returns the current
  // generation's bytes, that usage() equals the bytes of the pages found,
  // and that a page left only by an eviction the cache counted or by the
  // erasure of its segment — so a slot that is reused but still linked
  // into its old segment's list shows up when that segment is erased.
  //
  // Probing sets every reference bit, which turns clock into FIFO. Seeds
  // 1-4 probe after every step over 16 shards, where the accounting is
  // exact. Seeds 5-8 probe every 25 steps over 4 shards, so that eviction
  // order follows the random lookups and each shard holds several pages
  // per segment: lists then lose heads and middles, not just tails.
  constexpr uint64_t kStores = 2;
  constexpr SegmentId kSegments = 6;
  constexpr uint64_t kPages = 32;
  constexpr uint64_t kPageUnit = 8 * sizeof(Entry);
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool exact = seed <= 4;
    const int shards = exact ? 16 : 4;
    const int probe_every = exact ? 1 : 25;
    const int steps = exact ? 1000 : 3000;
    std::mt19937_64 rng(seed);
    BlockCache cache(shards * 3 * kPageUnit, shards);
    std::vector<uint64_t> stores;
    for (uint64_t i = 0; i < kStores; ++i) {
      stores.push_back(cache.RegisterStore());
    }
    Statistics stats;
    std::map<std::pair<uint64_t, SegmentId>, uint64_t> gen;
    std::map<ModelKey, uint64_t> possible;  // -> payload bytes
    uint64_t evictions_at_probe = 0;
    for (int step = 1; step <= steps; ++step) {
      const uint64_t store = stores[rng() % kStores];
      const SegmentId seg = rng() % kSegments;
      const uint64_t page = rng() % kPages;
      const int op = static_cast<int>(rng() % 100);
      bool admitted = false;
      if (op < 60) {
        const std::vector<Entry> p =
            ModelPage(store, seg, page, gen[{store, seg}]);
        cache.Insert(store, seg, page, p.data(), p.size(), &stats);
        admitted = p.size() * sizeof(Entry) <= cache.capacity() / shards;
        if (admitted) possible[{store, seg, page}] = p.size() * sizeof(Entry);
      } else if (op < 80) {
        PageBuffer buf;
        cache.Lookup(store, seg, page, &buf);
      } else if (op < 90) {
        cache.EraseSegment(store, seg);
        ++gen[{store, seg}];
        for (uint64_t p = 0; p < kPages; ++p) possible.erase({store, seg, p});
      } else {
        cache.set_capacity(shards * (1 + rng() % 8) * kPageUnit);
      }
      if (step % probe_every != 0) continue;

      std::map<ModelKey, uint64_t> found;
      uint64_t found_bytes = 0;
      PageBuffer buf;
      for (const uint64_t st : stores) {
        for (SegmentId sg = 0; sg < kSegments; ++sg) {
          const uint64_t cur = gen[{st, sg}];
          for (uint64_t p = 0; p < kPages; ++p) {
            if (!cache.Lookup(st, sg, p, &buf)) continue;
            ASSERT_TRUE(SamePage(buf, ModelPage(st, sg, p, cur)))
                << "step " << step << ": stale or wrong page " << st << "/"
                << sg << "/" << p;
            ASSERT_EQ(possible.count({st, sg, p}), 1u)
                << "step " << step << ": erased page " << st << "/" << sg
                << "/" << p << " is still resident";
            ASSERT_EQ(possible.at({st, sg, p}), buf.size() * sizeof(Entry));
            found[{st, sg, p}] = buf.size() * sizeof(Entry);
            found_bytes += buf.size() * sizeof(Entry);
          }
        }
      }
      ASSERT_EQ(cache.usage(), found_bytes) << "step " << step;
      if (admitted) {
        ASSERT_EQ(found.count({store, seg, page}), 1u)
            << "step " << step << ": the admitted page was evicted at once";
      }
      // Every page that went missing was evicted. With one step per probe
      // the victims are distinct, so the counts match exactly; over a
      // window a page may be evicted, readmitted and evicted again.
      const uint64_t evicted = stats.cache_evictions.load() -
                               evictions_at_probe;
      const uint64_t missing = possible.size() - found.size();
      if (exact) {
        ASSERT_EQ(missing, evicted) << "step " << step << " op " << op;
      } else {
        ASSERT_LE(missing, evicted) << "step " << step;
      }
      possible = std::move(found);
      evictions_at_probe = stats.cache_evictions.load();
    }
    EXPECT_GT(stats.cache_evictions.load(), 100u) << "never under pressure";
    // Erasing everything returns usage to zero.
    for (const uint64_t st : stores) {
      for (SegmentId sg = 0; sg < kSegments; ++sg) cache.EraseSegment(st, sg);
    }
    EXPECT_EQ(cache.usage(), 0u);
  }
}

TEST(BlockCacheModelTest, EraseAfterPartialEviction) {
  // One shard with room for four pages. Segment 1 fills it; segment 2's
  // first two pages evict (and reuse the slots of) segment 1's pages 0 and
  // 1. Erasing segment 1 must drop only its two resident pages, and the
  // reused slots must now belong to segment 2 alone.
  constexpr uint64_t kPage = 8 * sizeof(Entry);
  BlockCache cache(4 * kPage, /*num_shards=*/1);
  const uint64_t store = cache.RegisterStore();
  Statistics stats;
  const std::vector<Entry> one = MakePage(0, 8);
  const std::vector<Entry> two = MakePage(1000, 8);
  for (uint64_t p = 0; p < 4; ++p) {
    cache.Insert(store, 1, p, one.data(), 8, &stats);
  }
  for (uint64_t p = 0; p < 2; ++p) {
    cache.Insert(store, 2, p, two.data(), 8, &stats);
  }
  ASSERT_EQ(stats.cache_evictions.load(), 2u);
  ASSERT_EQ(cache.usage(), 4 * kPage);

  cache.EraseSegment(store, 1);
  EXPECT_EQ(cache.usage(), 2 * kPage);
  PageBuffer buf;
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 1, p, &buf)) << p;
  }
  for (uint64_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(cache.Lookup(store, 2, p, &buf)) << p;
    EXPECT_TRUE(SamePage(buf, two));
  }
  // Erasing an already-erased segment is a no-op.
  cache.EraseSegment(store, 1);
  EXPECT_EQ(cache.usage(), 2 * kPage);

  // Refill past capacity so segment 2 loses a page to the hand too, then
  // erase it: nothing of it may survive and nothing else may go.
  for (uint64_t p = 0; p < 3; ++p) {
    cache.Insert(store, 3, p, one.data(), 8, &stats);
  }
  cache.EraseSegment(store, 2);
  for (uint64_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(cache.Lookup(store, 2, p, &buf)) << p;
  }
  uint64_t resident = 0;
  for (uint64_t p = 0; p < 3; ++p) {
    resident += cache.Lookup(store, 3, p, &buf) ? 1 : 0;
  }
  EXPECT_EQ(cache.usage(), resident * kPage);
  cache.EraseSegment(store, 3);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(BlockCacheModelTest, EvictionUnlinksHeadsMiddlesAndTails) {
  // One shard with room for six pages, so the clock hand's path is known:
  // it starts at slot 0 and skips (clearing) every referenced page. Each
  // case evicts list members at a chosen position, lets the freed slots
  // be reused by other segments, then erases segment by segment: each
  // erase must drop exactly that segment's resident pages.
  constexpr uint64_t kPage = 8 * sizeof(Entry);
  const std::vector<Entry> page = MakePage(0, 8);
  struct Case {
    const char* name;
    std::vector<std::pair<SegmentId, uint64_t>> fill;    // slots 0..5
    std::vector<std::pair<SegmentId, uint64_t>> touch;   // reference bits
    std::vector<std::pair<SegmentId, uint64_t>> admit;   // each evicts one
  };
  const std::vector<Case> cases = {
      // Segment 1 is 1:2 -> 1:1 -> 1:0. Admitting 3:0 evicts the middle
      // 1:1, admitting 3:1 then evicts the head 1:2 while 1:0 survives.
      {"middle then head",
       {{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}},
       {{1, 0}, {2, 0}, {2, 1}, {2, 2}},
       {{3, 0}, {3, 1}}},
      // Segment 1 is 1:2 -> 1:1 -> 1:0. Admitting 2:1 evicts the middle
      // 1:1 and puts 2:1 at the head of segment 2's list in that slot;
      // admitting 4:0 then evicts the tail 1:0.
      {"middle then tail",
       {{1, 0}, {1, 1}, {1, 2}, {2, 0}, {3, 0}, {3, 1}},
       {{1, 0}, {1, 2}, {2, 0}, {3, 0}, {3, 1}},
       {{2, 1}, {4, 0}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BlockCache cache(6 * kPage, /*num_shards=*/1);
    const uint64_t store = cache.RegisterStore();
    Statistics stats;
    std::map<std::pair<SegmentId, uint64_t>, bool> resident;
    for (const auto& [seg, p] : c.fill) {
      cache.Insert(store, seg, p, page.data(), page.size(), &stats);
      resident[{seg, p}] = true;
    }
    PageBuffer buf;
    for (const auto& [seg, p] : c.touch) {
      ASSERT_TRUE(cache.Lookup(store, seg, p, &buf));
    }
    for (const auto& [seg, p] : c.admit) {
      cache.Insert(store, seg, p, page.data(), page.size(), &stats);
      resident[{seg, p}] = true;
    }
    ASSERT_EQ(stats.cache_evictions.load(), c.admit.size());
    for (auto& [key, live] : resident) {
      live = cache.Lookup(store, key.first, key.second, &buf);
    }
    for (SegmentId erased = 1; erased <= 4; ++erased) {
      cache.EraseSegment(store, erased);
      uint64_t still = 0;
      for (const auto& [key, live] : resident) {
        const bool found = cache.Lookup(store, key.first, key.second, &buf);
        if (key.first <= erased) {
          EXPECT_FALSE(found) << key.first << ":" << key.second;
        } else {
          EXPECT_EQ(found, live) << key.first << ":" << key.second;
          still += found ? 1 : 0;
        }
      }
      EXPECT_EQ(cache.usage(), still * kPage) << "after erasing " << erased;
    }
  }
}

TEST(BlockCacheModelTest, ConcurrentLookupsRaceInsertAndErase) {
  // Readers probe while one thread churns shared segments through a small
  // cache and another repeatedly admits and erases segments it alone owns.
  // Every hit must return the page's own bytes, and once an owned segment
  // is erased none of its pages may be found again.
  constexpr uint64_t kPage = 8 * sizeof(Entry);
  constexpr SegmentId kShared = 16;
  constexpr uint64_t kPages = 16;
  BlockCache cache(16 * 8 * kPage);
  const uint64_t store = cache.RegisterStore();
  auto page_of = [](SegmentId seg, uint64_t p) {
    return MakePage((seg * kPages + p) * 16, 1 + (seg + p) % 8);
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(r + 1);
      PageBuffer buf;
      while (!stop.load(std::memory_order_relaxed)) {
        const SegmentId seg = rng() % (2 * kShared);
        const uint64_t p = rng() % kPages;
        if (cache.Lookup(store, seg, p, &buf)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (!SamePage(buf, page_of(seg, p))) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread inserter([&] {
    std::mt19937_64 rng(99);
    for (int i = 0; i < 20000; ++i) {
      const SegmentId seg = rng() % kShared;
      const uint64_t p = rng() % kPages;
      const std::vector<Entry> page = page_of(seg, p);
      cache.Insert(store, seg, p, page.data(), page.size(), nullptr);
      if (i % 500 == 0) cache.EraseSegment(store, rng() % kShared);
    }
  });
  std::thread eraser([&] {
    PageBuffer buf;
    for (int round = 0; round < 300; ++round) {
      const SegmentId seg = kShared + round % kShared;
      for (uint64_t p = 0; p < kPages; ++p) {
        const std::vector<Entry> page = page_of(seg, p);
        cache.Insert(store, seg, p, page.data(), page.size(), nullptr);
      }
      cache.EraseSegment(store, seg);
      for (uint64_t p = 0; p < kPages; ++p) {
        if (cache.Lookup(store, seg, p, &buf)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  inserter.join();
  eraser.join();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);

  // Quiesced: usage is exactly the resident pages, and erasing every
  // segment empties the cache.
  uint64_t found_bytes = 0;
  PageBuffer buf;
  for (SegmentId seg = 0; seg < 2 * kShared; ++seg) {
    for (uint64_t p = 0; p < kPages; ++p) {
      if (cache.Lookup(store, seg, p, &buf)) {
        found_bytes += buf.size() * sizeof(Entry);
      }
    }
  }
  EXPECT_EQ(cache.usage(), found_bytes);
  for (SegmentId seg = 0; seg < 2 * kShared; ++seg) {
    cache.EraseSegment(store, seg);
  }
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(ArbitrateMemoryTest, SplitsFollowReadShareWithClamps) {
  const uint64_t budget = 1000;
  // Balanced mix: an even split.
  ArbiterSplit even = ArbitrateMemory(budget, 500, 500, 0);
  EXPECT_EQ(even.cache_bytes, 500u);
  EXPECT_EQ(even.cache_bytes + even.buffer_bytes, budget);
  // Read-only drift clamps at 7/8 cache.
  ArbiterSplit readonly = ArbitrateMemory(budget, 1000, 0, 0);
  EXPECT_EQ(readonly.cache_bytes, 875u);
  // Write-only drift clamps at 1/8 cache.
  ArbiterSplit writeonly = ArbitrateMemory(budget, 0, 1000, 0);
  EXPECT_EQ(writeonly.cache_bytes, 125u);
  // No observations yet: balanced.
  ArbiterSplit cold = ArbitrateMemory(budget, 0, 0, 0);
  EXPECT_EQ(cold.cache_bytes, 500u);
  // The buffer floor wins over the read share.
  ArbiterSplit floored = ArbitrateMemory(budget, 1000, 0, 400);
  EXPECT_GE(floored.buffer_bytes, 400u);
  EXPECT_EQ(floored.cache_bytes + floored.buffer_bytes, budget);
}

TEST(BlockCacheOptionsTest, BudgetRequiresCache) {
  Options o;
  o.memory_budget_bytes = 1 << 20;
  o.block_cache_bytes = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.block_cache_bytes = 1 << 16;
  EXPECT_TRUE(o.Validate().ok());
  // The cache must fit inside the budget it arbitrates under.
  o.block_cache_bytes = 2 << 20;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(BlockCacheOptionsTest, CannotEnableCacheAfterOpen) {
  // The cache and its page-store registrations are built at open; a
  // retune may resize it (including to 0 = pass-through) but not conjure
  // one up.
  Options o;
  auto db = ShardedDB::Open(o);
  ASSERT_TRUE(db.ok());
  Options with_cache = o;
  with_cache.block_cache_bytes = 1 << 16;
  EXPECT_FALSE((*db)->ApplyTuning(with_cache).ok());

  Options cached = o;
  cached.block_cache_bytes = 1 << 16;
  auto db2 = ShardedDB::Open(cached);
  ASSERT_TRUE(db2.ok());
  ASSERT_NE((*db2)->block_cache(), nullptr);
  Options resized = cached;
  resized.block_cache_bytes = 1 << 15;
  EXPECT_TRUE((*db2)->ApplyTuning(resized).ok());
  EXPECT_EQ((*db2)->block_cache()->capacity(), uint64_t{1} << 15);
  resized.block_cache_bytes = 0;
  EXPECT_TRUE((*db2)->ApplyTuning(resized).ok());
  EXPECT_EQ((*db2)->block_cache()->capacity(), 0u);
}

TEST(BlockCacheArbiterTest, ShiftsBudgetTowardReadsUnderReadHeavyMix) {
  // End-to-end arbiter: a read-heavy phase after a write phase must grow
  // the cache's share of the budget (observable via capacity) and
  // retarget the write buffers without disturbing correctness.
  Options o;
  o.buffer_entries = 128;
  o.entries_per_page = 4;
  o.num_shards = 2;
  o.block_cache_bytes = 64 * 1024;
  o.memory_budget_bytes = 512 * 1024;
  auto db_or = ShardedDB::Open(o);
  ASSERT_TRUE(db_or.ok());
  ShardedDB* db = db_or->get();
  // Write phase crosses several arbiter periods (1024 ops each).
  for (Key k = 0; k < 4096; ++k) {
    ASSERT_TRUE(db->Put(k, k).ok());
  }
  const uint64_t write_heavy_capacity = db->block_cache()->capacity();
  // Read-heavy phase: reads don't tick the arbiter (it is a write-path
  // hook), so interleave sparse writes to let it observe the new mix.
  for (int round = 0; round < 8; ++round) {
    for (Key k = 0; k < 4096; ++k) {
      db->Get(k);
    }
    for (Key k = 0; k < 512; ++k) {
      ASSERT_TRUE(db->Put(k, k + 1).ok());
    }
  }
  const uint64_t read_heavy_capacity = db->block_cache()->capacity();
  EXPECT_GT(read_heavy_capacity, write_heavy_capacity);
  // The split always exhausts the budget.
  EXPECT_LE(read_heavy_capacity, o.memory_budget_bytes);
  // Reads still correct after all the retargeting.
  for (Key k = 0; k < 512; ++k) {
    const std::optional<Value> got = db->Get(k);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, k + 1);
  }
}

}  // namespace
}  // namespace endure::lsm
