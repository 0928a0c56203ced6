#include "lsm/db.h"

#include "lsm/manifest.h"
#include "util/env.h"

namespace endure::lsm {

DB::DB(const Options& options) : options_(options) {
  if (options_.durability &&
      options_.wal_sync_mode == WalSyncMode::kBackground &&
      options_.shared_wal_flusher) {
    flush_service_ =
        std::make_unique<WalFlushService>(options_.wal_sync_interval_ms);
  }
  if (options_.block_cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  }
  store_ = MakePageStore(options_.entries_per_page, &stats_,
                         static_cast<int>(options_.backend),
                         options_.storage_dir,
                         /*persistent=*/options_.durability,
                         options_.verify_checksums,
                         options_.scrub_on_recovery);
  if (cache_ != nullptr) store_->set_block_cache(cache_.get());
  tree_ = std::make_unique<LsmTree>(options_, store_.get(), &stats_);
}

StatusOr<std::unique_ptr<DB>> DB::Open(const Options& options) {
  ENDURE_RETURN_IF_ERROR(options.Validate());
  if (!options.durability) return std::unique_ptr<DB>(new DB(options));

  // Durable open: recover an existing deployment or start a fresh one.
  // The persisted tuning overrides the caller's mutable knobs — an
  // ApplyTuning outlives the process that applied it.
  Options opts = options;
  ENDURE_RETURN_IF_ERROR(EnsureDir(opts.storage_dir));
  auto lock_or =
      FileLock::Acquire(opts.storage_dir + "/" + kLockFileName);
  if (!lock_or.ok()) return lock_or.status();
  ManifestData m;
  auto existing_or = LoadDurableState(opts.storage_dir, &opts, &m);
  if (!existing_or.ok()) return existing_or.status();
  const bool existing = *existing_or;
  if (existing && m.kind != kManifestKindTree) {
    return Status::InvalidArgument(
        "storage_dir holds a ShardedDB deployment; open it with "
        "ShardedDB::Open");
  }
  auto db = std::unique_ptr<DB>(new DB(opts));
  db->lock_ = std::move(lock_or).value();
  ENDURE_RETURN_IF_ERROR(
      RecoverAndAttach(db->tree_.get(), m, existing, opts.storage_dir,
                       db->flush_service_.get()));
  return db;
}

Status DB::BulkLoad(const std::vector<std::pair<Key, Value>>& sorted_pairs) {
  if (tree_->TotalEntries() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty database");
  }
  std::vector<Entry> entries;
  entries.reserve(sorted_pairs.size());
  for (const auto& [key, value] : sorted_pairs) {
    if (!entries.empty() && entries.back().key >= key) {
      return Status::InvalidArgument(
          "BulkLoad input must be strictly ascending by key");
    }
    entries.push_back(Entry{key, /*seq=*/0, value, EntryType::kValue});
  }
  return tree_->BulkLoad(entries);
}

Status DB::ApplyTuning(const Options& new_options) {
  if (new_options.block_cache_bytes > 0 && cache_ == nullptr) {
    return Status::InvalidArgument(
        "block_cache_bytes cannot be enabled after open; reopen with a "
        "non-zero cache to enable it");
  }
  ENDURE_RETURN_IF_ERROR(tree_->Reconfigure(new_options));
  if (cache_ != nullptr) {
    cache_->set_capacity(new_options.block_cache_bytes);
  }
  // A plain DB has no scheduler: an inline tree converges the migration
  // here, a background tree leaves it (and any sealed buffer) to the
  // write path's maintenance fallback. A failed step is recoverable: the
  // tree keeps the level intact, so a retry (or reopen) resumes here.
  if (!new_options.background_maintenance) {
    ENDURE_RETURN_IF_ERROR(tree_->DrainMaintenance());
  }
  options_ = new_options;
  return Status::OK();
}

}  // namespace endure::lsm
