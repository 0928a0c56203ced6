#include "lsm/page_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/options.h"

namespace endure::lsm {
namespace {

std::vector<Entry> MakeEntries(int n) {
  std::vector<Entry> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Entry{static_cast<Key>(i * 2), static_cast<SeqNum>(i),
                        static_cast<Value>(i * 100),
                        i % 7 == 0 ? EntryType::kTombstone
                                   : EntryType::kValue});
  }
  return out;
}

template <typename StoreFactory>
void RunStoreContractTests(StoreFactory make_store) {
  Statistics stats;
  auto store = make_store(&stats);

  const std::vector<Entry> entries = MakeEntries(10);  // B=4 -> 3 pages
  const SegmentId seg =
      store->WriteSegment(entries, IoContext::kFlush).value();
  EXPECT_EQ(store->NumPages(seg), 3u);
  EXPECT_EQ(store->NumEntries(seg), 10u);
  EXPECT_EQ(stats.pages_written, 3u);
  EXPECT_EQ(stats.flush_pages_written, 3u);

  PageBuffer page;
  store->ReadPage(seg, 0, IoContext::kPointQuery, &page);
  ASSERT_EQ(page.size(), 4u);
  EXPECT_EQ(page[0].key, 0u);
  EXPECT_EQ(page[3].key, 6u);
  EXPECT_EQ(page[0].type, EntryType::kTombstone);
  EXPECT_EQ(page[1].type, EntryType::kValue);
  EXPECT_EQ(stats.pages_read, 1u);
  EXPECT_EQ(stats.point_pages_read, 1u);

  // Last (partial) page has 2 entries.
  store->ReadPage(seg, 2, IoContext::kRangeQuery, &page);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[1].key, 18u);
  EXPECT_EQ(page[1].value, 900u);
  EXPECT_EQ(stats.range_pages_read, 1u);

  // A second segment coexists.
  const SegmentId seg2 =
      store->WriteSegment(MakeEntries(4), IoContext::kCompaction).value();
  EXPECT_NE(seg, seg2);
  EXPECT_EQ(store->NumPages(seg2), 1u);
  EXPECT_EQ(stats.compaction_pages_written, 1u);

  store->FreeSegment(seg);
  store->ReadPage(seg2, 0, IoContext::kCompaction, &page);
  EXPECT_EQ(page.size(), 4u);
  EXPECT_EQ(stats.compaction_pages_read, 1u);
}

template <typename StoreFactory>
void RunSegmentWriterContractTests(StoreFactory make_store) {
  Statistics stats;
  auto store = make_store(&stats);
  const std::vector<Entry> entries = MakeEntries(10);  // B=4 -> 3 pages

  // Streaming write: pages are counted as they are appended, before Seal.
  auto writer = store->NewSegmentWriter(IoContext::kCompaction);
  EXPECT_EQ(stats.pages_written, 0u);
  ASSERT_TRUE(writer->AppendPage(entries.data(), 4).ok());
  ASSERT_TRUE(writer->AppendPage(entries.data() + 4, 4).ok());
  EXPECT_EQ(stats.compaction_pages_written, 2u);
  ASSERT_TRUE(writer->AppendPage(entries.data() + 8, 2).ok());  // partial
  const SegmentId seg = writer->Seal().value();
  EXPECT_EQ(stats.compaction_pages_written, 3u);
  EXPECT_EQ(store->NumPages(seg), 3u);
  EXPECT_EQ(store->NumEntries(seg), 10u);

  // Round trip, including the partial page.
  PageBuffer page;
  store->ReadPage(seg, 2, IoContext::kPointQuery, &page);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0].key, 16u);
  EXPECT_EQ(page[1].key, 18u);

  // An abandoned writer (destroyed unsealed) leaves no readable segment
  // but keeps its page writes counted: the device I/O happened.
  {
    auto abandoned = store->NewSegmentWriter(IoContext::kFlush);
    ASSERT_TRUE(abandoned->AppendPage(entries.data(), 4).ok());
  }
  EXPECT_EQ(stats.flush_pages_written, 1u);
  // The sealed segment is still intact.
  EXPECT_EQ(store->NumEntries(seg), 10u);
}

TEST(MemPageStoreTest, Contract) {
  RunStoreContractTests([](Statistics* stats) {
    return std::make_unique<MemPageStore>(4, stats);
  });
}

TEST(MemPageStoreTest, SegmentWriterContract) {
  RunSegmentWriterContractTests([](Statistics* stats) {
    return std::make_unique<MemPageStore>(4, stats);
  });
}

TEST(FilePageStoreTest, Contract) {
  RunStoreContractTests([](Statistics* stats) {
    return std::make_unique<FilePageStore>(4, stats,
                                           "/tmp/endure_test_store");
  });
}

TEST(FilePageStoreTest, SegmentWriterContract) {
  RunSegmentWriterContractTests([](Statistics* stats) {
    return std::make_unique<FilePageStore>(4, stats,
                                           "/tmp/endure_test_store");
  });
}

TEST(FilePageStoreTest, RoundTripsEntryEncoding) {
  Statistics stats;
  FilePageStore store(2, &stats, "/tmp/endure_test_store2");
  std::vector<Entry> in{
      Entry{0xDEADBEEFCAFEBABEull, 42, 0x0123456789ABCDEFull,
            EntryType::kValue},
      Entry{1, 2, 3, EntryType::kTombstone}};
  const SegmentId seg =
      store.WriteSegment(in, IoContext::kBulkLoad).value();
  PageBuffer out;
  store.ReadPage(seg, 0, IoContext::kPointQuery, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, in[0].key);
  EXPECT_EQ(out[0].seq, in[0].seq);
  EXPECT_EQ(out[0].value, in[0].value);
  EXPECT_EQ(out[0].type, in[0].type);
  EXPECT_EQ(out[1].type, EntryType::kTombstone);
}

/// Entries of segment `tag`: key tag * 1e6 + i, value derived from key.
std::vector<Entry> TaggedEntries(uint64_t tag, size_t n) {
  std::vector<Entry> out;
  for (size_t i = 0; i < n; ++i) {
    const Key key = tag * 1000000 + i;
    out.push_back(Entry{key, 1, ~key, EntryType::kValue});
  }
  return out;
}

/// True if `view` is page `page` of TaggedEntries(tag, n) at B entries.
bool PageMatches(const PageView& view, uint64_t tag, size_t n, size_t page,
                 size_t per_page) {
  const size_t begin = page * per_page;
  if (view.size != std::min(per_page, n - begin)) return false;
  for (size_t i = 0; i < view.size; ++i) {
    const Key key = tag * 1000000 + begin + i;
    if (view[i].key != key || view[i].value != ~key) return false;
  }
  return true;
}

TEST(FilePageStoreConcurrencyTest, LockFreeReadsRaceSegmentChurn) {
  // Page reads take no store lock, so they must stay correct while other
  // threads open, seal and free segments of the same store — including
  // the segment-table chunk allocations and frees and a directory growth
  // (ids start just below the first directory's 16 chunks of 1024) — and
  // while a shared block cache admits, evicts and erases their pages.
  constexpr size_t kPerPage = 8;
  constexpr size_t kStableEntries = 8 * kPerPage + 3;  // partial last page
  constexpr int kStable = 6;
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  constexpr int kSegmentsPerWriter = 1000;
  const std::string dir = "/tmp/endure_test_store_concurrency";
  std::filesystem::remove_all(dir);
  Statistics stats;
  BlockCache cache(/*capacity_bytes=*/16 * kPerPage * sizeof(Entry));
  {
    FilePageStore store(kPerPage, &stats, dir);
    store.set_block_cache(&cache);
    std::vector<SegmentId> stable;
    for (int t = 0; t < kStable; ++t) {
      stable.push_back(
          store.WriteSegment(TaggedEntries(t, kStableEntries),
                             IoContext::kFlush)
              .value());
    }
    store.set_next_id(16 * 1024 - 100);

    std::atomic<bool> done{false};
    std::atomic<uint64_t> bad{0};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        std::mt19937_64 rng(r);
        PageBuffer scratch;
        const size_t pages = (kStableEntries + kPerPage - 1) / kPerPage;
        while (!done.load(std::memory_order_relaxed)) {
          const size_t t = rng() % kStable;
          const size_t page = rng() % pages;
          // Alternate cached (point) and uncached (compaction) reads.
          const IoContext ctx =
              rng() % 2 ? IoContext::kPointQuery : IoContext::kCompaction;
          const StatusOr<PageView> view =
              store.ReadPageView(stable[t], page, ctx, &scratch);
          if (!view.ok() ||
              !PageMatches(*view, t, kStableEntries, page, kPerPage) ||
              store.NumEntries(stable[t]) != kStableEntries) {
            ++bad;
          }
          ++reads;
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        PageBuffer scratch;
        for (int i = 0; i < kSegmentsPerWriter; ++i) {
          const uint64_t tag = 100 + w * kSegmentsPerWriter + i;
          const size_t n = 1 + i % (3 * kPerPage);
          const std::vector<Entry> entries = TaggedEntries(tag, n);
          auto writer = store.NewSegmentWriter(IoContext::kFlush);
          for (size_t begin = 0; begin < n; begin += kPerPage) {
            if (!writer->AppendPage(entries.data() + begin,
                                    std::min(kPerPage, n - begin))
                     .ok()) {
              ++bad;
            }
          }
          const StatusOr<SegmentId> seg = writer->Seal();
          if (!seg.ok()) {
            ++bad;
            continue;
          }
          const StatusOr<PageView> view = store.ReadPageView(
              *seg, (n - 1) / kPerPage, IoContext::kPointQuery, &scratch);
          if (!view.ok() ||
              !PageMatches(*view, tag, n, (n - 1) / kPerPage, kPerPage)) {
            ++bad;
          }
          store.FreeSegment(*seg);
        }
      });
    }
    for (int i = kReaders; i < kReaders + kWriters; ++i) threads[i].join();
    done = true;
    for (int i = 0; i < kReaders; ++i) threads[i].join();

    EXPECT_EQ(bad.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    EXPECT_GT(store.next_id(), 16u * 1024)
        << "the churn never grew the segment directory";
    EXPECT_EQ(stats.checksum_failures, 0u);
    for (int t = 0; t < kStable; ++t) store.FreeSegment(stable[t]);
  }
  EXPECT_EQ(cache.usage(), 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "segment files leaked";
  std::filesystem::remove_all(dir);
}

TEST(PageBufferTest, ReserveIsIdempotentAndKeepsCapacity) {
  PageBuffer buf(8);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.size(), 0u);
  buf.data()[0] = Entry{7, 1, 70, EntryType::kValue};
  buf.set_size(1);
  buf.Reserve(4);  // smaller: no-op, contents kept
  EXPECT_EQ(buf.capacity(), 8u);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].key, 7u);
}

TEST(MakePageStoreTest, FactorySelectsBackend) {
  Statistics stats;
  auto mem = MakePageStore(4, &stats,
                           static_cast<int>(StorageBackend::kMemory), "");
  EXPECT_NE(dynamic_cast<MemPageStore*>(mem.get()), nullptr);
  auto file = MakePageStore(4, &stats,
                            static_cast<int>(StorageBackend::kFile),
                            "/tmp/endure_test_store3");
  EXPECT_NE(dynamic_cast<FilePageStore*>(file.get()), nullptr);
}

TEST(StatisticsTest, DeltaSubtractsAllCounters) {
  Statistics a;
  a.pages_read = 10;
  a.gets = 5;
  a.compaction_pages_written = 7;
  Statistics b = a;
  b.pages_read = 25;
  b.gets = 9;
  b.compaction_pages_written = 11;
  const Statistics d = b.Delta(a);
  EXPECT_EQ(d.pages_read, 15u);
  EXPECT_EQ(d.gets, 4u);
  EXPECT_EQ(d.compaction_pages_written, 4u);
  EXPECT_EQ(d.writes, 0u);
}

TEST(StatisticsTest, ToStringContainsCounters) {
  Statistics s;
  s.pages_read = 123;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("pages_read=123"), std::string::npos);
}

}  // namespace
}  // namespace endure::lsm
