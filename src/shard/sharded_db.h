// ShardedDB: N independent DBImpl instances behind the one DB interface,
// hash-partitioned by user key (shard_map.h).  This is the unit of
// horizontal scale: each shard owns its own WAL, group-commit front
// writer, memtables, manifest, compactions and sequence domain, so the
// last global serialization points of a single instance disappear —
// writers to different shards never touch the same mutex.
//
// Semantics (docs/SHARDING.md has the full contract):
//   * Single-key ops route to the owning shard and behave exactly like a
//     single instance.
//   * A WriteBatch is split per shard and applied shard-by-shard in shard
//     order.  Atomicity is per shard: a crash can persist the batch's
//     writes on some shards and not others (each shard is individually
//     prefix-consistent; asserted by the crash harness).
//   * Sequence numbers are per shard.  A snapshot is a vector of per-shard
//     snapshots taken in shard order, not a single global sequence; SCAN
//     merges per-shard iterators pinned to one such snapshot set.
//   * GetStats() sums shards via DbStats::operator+=; the per-shard
//     breakdown is the "iamdb.shard-stats" property.
//
// The shard count is fixed at create time and persisted in the SHARDMAP
// manifest; reopening with a different count is refused.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/snapshot.h"
#include "shard/shard_map.h"

namespace iamdb {

// Snapshot handle over one snapshot per shard (shard order).  Returned by
// ShardedDB::GetSnapshot; passing it to any other DB is undefined.
class ShardedSnapshot final : public Snapshot {
 public:
  ~ShardedSnapshot() override = default;
  const std::vector<const Snapshot*>& shards() const { return shards_; }

 private:
  friend class ShardedDB;
  std::vector<const Snapshot*> shards_;
};

class ShardedDB final : public DB {
 public:
  // Opens (creating if allowed) a sharded database at `name`.
  //   num_shards > 0: create with that count, or verify it matches the
  //                   persisted SHARDMAP (mismatch = InvalidArgument).
  //   num_shards == 0: open with the persisted count (absent = error).
  // Per-shard resources are divided from the shared Options: each shard
  // gets block_cache_capacity/N of cache and background_threads/N (min 1)
  // background threads, so a ShardedDB consumes roughly the same memory
  // budget as a single instance with the same Options.
  static Status Open(const Options& options, const std::string& name,
                     int num_shards, std::unique_ptr<DB>* dbptr);

  // Deletes all shard directories and the SHARDMAP manifest.
  static Status Destroy(const Options& options, const std::string& name);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  // Groups the batch per owning shard and issues one native MultiGet per
  // shard, so coalesced table I/O survives sharding.  Read-point contract
  // matches GetSnapshot(): one snapshot per shard, taken in shard order.
  void MultiGet(const ReadOptions& options, size_t count, const Slice* keys,
                std::string* values, Status* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status WaitForQuiescence() override;
  Status FlushAll() override;
  DbStats GetStats() override;
  // Sum of the shards' amp counters, recomputed on each call into a
  // member scratch instance (callers are benchmarks sampling between
  // phases; concurrent calls would race the scratch and must not happen).
  const AmpStats& amp_stats() const override;
  bool GetProperty(const Slice& property, std::string* value) override;
  Status CheckInvariants(bool quiescent) override;

  const ShardMap& shard_map() const { return map_; }
  DB* shard(int i) { return shards_[i].get(); }

 private:
  ShardedDB(const ShardMap& map, std::vector<std::unique_ptr<DB>> shards);

  // Per-shard ReadOptions: the caller's sharded snapshot (when set) is
  // narrowed to the given shard's member snapshot.
  ReadOptions RouteRead(const ReadOptions& options, uint32_t shard) const;

  const ShardMap map_;
  std::vector<std::unique_ptr<DB>> shards_;
  mutable AmpStats agg_amp_stats_;  // scratch for amp_stats()
};

}  // namespace iamdb
