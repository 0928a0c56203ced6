// On-disk corruption detection: per-page CRC32 verification at runtime
// (Options::verify_checksums) and at recovery (Options::scrub_on_recovery),
// plus the manifest-length cross-check for truncated segment files. The
// damage is inflicted on the real files between closes — no fault
// injector, just a hex editor's view of the deployment directory (a
// one-shard deployment keeps its segments under shard_0/).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lsm/sharded_db.h"
#include "util/env.h"
#include "util/status.h"

namespace endure::lsm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = "/tmp/endure_corruption_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Options DurableOpts(const std::string& dir) {
  Options o;
  o.size_ratio = 4;
  o.buffer_entries = 32;
  o.entries_per_page = 4;
  o.filter_bits_per_entry = 6.0;
  o.backend = StorageBackend::kFile;
  o.storage_dir = dir;
  o.durability = true;
  o.wal_sync_mode = WalSyncMode::kPerBatch;
  return o;
}

/// Paths of every segment file in `dir`, sorted.
std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg_", 0) == 0 &&
        name.size() > 8 && name.substr(name.size() - 4) == ".run") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(offset);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good()) << path;
}

/// Builds a deployment with one flushed run of keys [0, n) and closes it.
void SeedDeployment(const Options& opts, Key n) {
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE((*db)->Put(k, k + 100).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());
}

TEST(CorruptionTest, RecoveryScrubRejectsBitFlippedSegment) {
  const std::string dir = FreshDir("scrub_bitflip");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);  // inside the first page's payload

  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().message();
}

TEST(CorruptionTest, TruncatedSegmentFailsRecovery) {
  const std::string dir = FreshDir("truncated");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  const std::string victim = segs.front();
  const auto size = std::filesystem::file_size(victim);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(victim, size / 2);

  auto reopened = ShardedDB::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().message();
}

TEST(CorruptionTest, ScrubOffDefersDetectionToFirstRead) {
  const std::string dir = FreshDir("scrub_off");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);

  // Without the recovery scrub the open succeeds (fences and filters are
  // rebuilt from what the pages claim), but runtime verification catches
  // the damage on the first point read that touches the bad page.
  opts.scrub_on_recovery = false;
  opts.verify_checksums = true;
  auto db = ShardedDB::Open(opts);
  // Recovery still reads every page to rebuild filters, so a checksum-
  // verifying read path may legitimately refuse the open too; both
  // detect-at-open and detect-at-read satisfy the no-silent-serving bar.
  if (!db.ok()) {
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    return;
  }
  EXPECT_EQ((*db)->Get(0), std::nullopt);  // page 0 holds keys 0..3
  EXPECT_FALSE((*db)->Health().ok());
  EXPECT_GE((*db)->TotalStats().checksum_failures.load(), 1u);
}

TEST(CorruptionTest, RuntimeChecksumFailureLatchesReadOnly) {
  const std::string dir = FreshDir("runtime_latch");
  Options opts = DurableOpts(dir);
  opts.scrub_on_recovery = false;  // let the damaged deployment open
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);

  auto db = ShardedDB::Open(opts);
  if (!db.ok()) {
    // Filter rebuild already tripped over the page — equally acceptable.
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    return;
  }
  // The corrupted page misses rather than serving damaged bytes...
  EXPECT_EQ((*db)->Get(0), std::nullopt);
  // ...and the tree latches read-only: writes are refused from now on.
  const Status health = (*db)->Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kCorruption);
  EXPECT_FALSE((*db)->Put(1000, 1).ok());
  EXPECT_GE((*db)->TotalStats().read_only_transitions.load(), 1u);
  EXPECT_GE((*db)->TotalStats().checksum_failures.load(), 1u);
}

TEST(CorruptionTest, BitRotIsNeverAdmittedToBlockCache) {
  // Checksum-verified admission: a page that fails CRC verification must
  // neither be admitted to the block cache nor ever served from it —
  // every retry re-reads the device, fails verification again, and
  // misses. A cache hit on rotted bytes would silently launder the
  // corruption past the verifier.
  const std::string dir = FreshDir("cache_bitrot");
  Options opts = DurableOpts(dir);
  opts.scrub_on_recovery = false;  // let the damaged deployment open
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);  // inside the first page's payload

  opts.block_cache_bytes = 256 * 1024;
  auto db = ShardedDB::Open(opts);
  if (!db.ok()) {
    // Filter rebuild already tripped over the page — equally acceptable.
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    return;
  }
  constexpr int kAttempts = 5;
  for (int i = 0; i < kAttempts; ++i) {
    EXPECT_EQ((*db)->Get(0), std::nullopt);  // page 0 holds keys 0..3
  }
  EXPECT_EQ((*db)->TotalStats().cache_hits.load(), 0u);
  EXPECT_GE((*db)->TotalStats().checksum_failures.load(),
            static_cast<uint64_t>(kAttempts));
  EXPECT_GE((*db)->TotalStats().cache_misses.load(),
            static_cast<uint64_t>(kAttempts));
}

TEST(CorruptionTest, VerifiedPagesAreServedFromCacheAfterBitRotElsewhere) {
  // The flip side of checksum-verified admission: pages that DID verify
  // are admitted and repeat reads hit the cache — even while a rotted
  // page elsewhere in the deployment keeps the tree latched read-only —
  // and serving a hit never re-runs (or re-fails) verification.
  const std::string dir = FreshDir("cache_clean_pages");
  Options opts = DurableOpts(dir);
  opts.scrub_on_recovery = false;
  SeedDeployment(opts, 64);

  const std::vector<std::string> segs = SegmentFiles(dir + "/shard_0");
  ASSERT_FALSE(segs.empty());
  FlipByte(segs.front(), 4);

  opts.block_cache_bytes = 256 * 1024;
  auto db = ShardedDB::Open(opts);
  if (!db.ok()) {
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
    return;
  }
  // A key far from the damaged first page: first read admits, the
  // second hits.
  ASSERT_EQ((*db)->Get(40).value_or(0), 140u);
  const uint64_t hits_before = (*db)->TotalStats().cache_hits.load();
  ASSERT_EQ((*db)->Get(40).value_or(0), 140u);
  EXPECT_GT((*db)->TotalStats().cache_hits.load(), hits_before);

  // Now trip the rotted page, then confirm cached serving of the clean
  // page still works and the failure count stops moving when hits serve.
  EXPECT_EQ((*db)->Get(0), std::nullopt);
  const uint64_t failures = (*db)->TotalStats().checksum_failures.load();
  EXPECT_GE(failures, 1u);
  const uint64_t hits_mid = (*db)->TotalStats().cache_hits.load();
  ASSERT_EQ((*db)->Get(40).value_or(0), 140u);
  EXPECT_GT((*db)->TotalStats().cache_hits.load(), hits_mid);
  EXPECT_EQ((*db)->TotalStats().checksum_failures.load(), failures);
}

TEST(CorruptionTest, EphemeralDeploymentHonoursVerifyChecksumsOff) {
  // verify_checksums reaches the page store of a non-durable deployment
  // too: with it off, a flipped byte is read unverified instead of being
  // counted as a checksum failure.
  const std::string dir = FreshDir("ephemeral_verify_off");
  ASSERT_TRUE(EnsureDir(dir).ok());
  Options opts = DurableOpts(dir);
  opts.durability = false;
  opts.verify_checksums = false;
  auto db = ShardedDB::Open(opts);
  ASSERT_TRUE(db.ok());
  for (Key k = 0; k < 64; ++k) {
    ASSERT_TRUE((*db)->Put(k, k + 100).ok());
  }
  ASSERT_TRUE((*db)->Flush().ok());

  // Ephemeral segments live at the storage_dir root, one set per store.
  const std::vector<std::string> segs = SegmentFiles(dir);
  ASSERT_FALSE(segs.empty());
  for (const std::string& seg : segs) FlipByte(seg, 4);

  (void)(*db)->Get(0);  // reads the first page of the run holding key 0
  EXPECT_GE((*db)->TotalStats().point_pages_read.load(), 1u);
  EXPECT_EQ((*db)->TotalStats().checksum_failures.load(), 0u);
  EXPECT_TRUE((*db)->Health().ok());
}

TEST(CorruptionTest, UndamagedDeploymentScrubsClean) {
  const std::string dir = FreshDir("clean_scrub");
  Options opts = DurableOpts(dir);
  SeedDeployment(opts, 256);  // several pages and a compaction or two

  auto db = ShardedDB::Open(opts);  // scrub_on_recovery is on by default
  ASSERT_TRUE(db.ok()) << db.status().message();
  for (Key k = 0; k < 256; ++k) {
    ASSERT_EQ((*db)->Get(k).value_or(0), k + 100) << k;
  }
  EXPECT_TRUE((*db)->Health().ok());
  EXPECT_EQ((*db)->TotalStats().checksum_failures.load(), 0u);
}

}  // namespace
}  // namespace endure::lsm
