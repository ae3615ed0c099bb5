#include "shard/sharded_db.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "env/env.h"
#include "memtable/write_batch.h"
#include "table/merging_iterator.h"

namespace iamdb {

namespace {

// Routes each record of a batch into its owning shard's sub-batch,
// preserving the batch's internal order within every shard.
struct ShardSplitter final : public WriteBatch::Handler {
  uint32_t num_shards = 1;
  std::vector<WriteBatch>* batches = nullptr;

  void Put(const Slice& key, const Slice& value) override {
    (*batches)[ShardOf(key, num_shards)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*batches)[ShardOf(key, num_shards)].Delete(key);
  }
};

}  // namespace

Status ShardedDB::Open(const Options& options, const std::string& name,
                       int num_shards, std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  if (options.env == nullptr) {
    return Status::InvalidArgument("Options::env is required");
  }
  if (num_shards < 0 || num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be in [0, 1024]");
  }
  Env* env = options.env;
  env->CreateDir(name);

  ShardMap map;
  Status s = ReadShardMapFile(env, name, &map);
  if (s.ok()) {
    if (num_shards > 0 && static_cast<uint32_t>(num_shards) !=
                              map.num_shards) {
      return Status::InvalidArgument(
          "shard count mismatch: SHARDMAP has " +
          std::to_string(map.num_shards) + ", requested " +
          std::to_string(num_shards));
    }
  } else if (s.IsCorruption() || s.IsNotSupported()) {
    return s;  // never guess over a torn or foreign manifest
  } else {
    // No manifest: this is a fresh sharded database.
    if (num_shards == 0) {
      return Status::InvalidArgument(name, "has no SHARDMAP manifest");
    }
    if (!options.create_if_missing) {
      return Status::InvalidArgument(name, "does not exist");
    }
    map.num_shards = static_cast<uint32_t>(num_shards);
    s = WriteShardMapFile(env, name, map);
    if (!s.ok()) return s;
  }

  // Split the shared memory / thread budgets across the shards.
  Options shard_options = options;
  shard_options.block_cache_capacity = std::max<uint64_t>(
      options.block_cache_capacity / map.num_shards, 1ull << 20);
  if (options.compressed_cache_capacity > 0) {
    // The compressed tier divides like the block cache; 0 stays 0 so the
    // tier is only instantiated when asked for.
    shard_options.compressed_cache_capacity = std::max<uint64_t>(
        options.compressed_cache_capacity / map.num_shards, 1ull << 20);
  }
  shard_options.background_threads = std::max(
      1, options.background_threads / static_cast<int>(map.num_shards));

  std::vector<std::unique_ptr<DB>> shards;
  shards.reserve(map.num_shards);
  for (uint32_t i = 0; i < map.num_shards; i++) {
    std::unique_ptr<DB> shard;
    s = DB::Open(shard_options, ShardDirName(name, i), &shard);
    if (!s.ok()) return s;
    shards.push_back(std::move(shard));
  }

  dbptr->reset(new ShardedDB(map, std::move(shards)));
  return Status::OK();
}

Status ShardedDB::Destroy(const Options& options, const std::string& name) {
  Env* env = options.env;
  ShardMap map;
  Status s = ReadShardMapFile(env, name, &map);
  if (!s.ok()) return Status::OK();  // nothing recognizable to destroy
  for (uint32_t i = 0; i < map.num_shards; i++) {
    Status d = DestroyDB(ShardDirName(name, i), options);
    if (!d.ok()) return d;
  }
  env->RemoveFile(ShardMapFileName(name));
  env->RemoveDir(name);
  return Status::OK();
}

ShardedDB::ShardedDB(const ShardMap& map,
                     std::vector<std::unique_ptr<DB>> shards)
    : map_(map), shards_(std::move(shards)) {}

ShardedDB::~ShardedDB() = default;

ReadOptions ShardedDB::RouteRead(const ReadOptions& options,
                                 uint32_t shard) const {
  ReadOptions ro = options;
  if (options.snapshot != nullptr) {
    ro.snapshot = static_cast<const ShardedSnapshot*>(options.snapshot)
                      ->shards()[shard];
  }
  return ro;
}

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[ShardOf(key, map_.num_shards)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardOf(key, map_.num_shards)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  if (shards_.size() == 1) return shards_[0]->Write(options, updates);

  std::vector<WriteBatch> batches(shards_.size());
  ShardSplitter splitter;
  splitter.num_shards = map_.num_shards;
  splitter.batches = &batches;
  Status s = updates->Iterate(&splitter);
  if (!s.ok()) return s;

  // Shard order, first error wins.  Atomicity is per shard: on error (or
  // a crash) a prefix of the shards may have applied — each shard is
  // individually atomic and prefix-consistent, the cross-shard batch is
  // not (docs/SHARDING.md).
  for (size_t i = 0; i < shards_.size(); i++) {
    if (batches[i].Count() == 0) continue;
    s = shards_[i]->Write(options, &batches[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const uint32_t shard = ShardOf(key, map_.num_shards);
  return shards_[shard]->Get(RouteRead(options, shard), key, value);
}

void ShardedDB::MultiGet(const ReadOptions& options, size_t count,
                         const Slice* keys, std::string* values,
                         Status* statuses) {
  if (count == 0) return;
  if (shards_.size() == 1) {
    shards_[0]->MultiGet(RouteRead(options, 0), count, keys, values,
                         statuses);
    return;
  }

  // Group key indices per owning shard, preserving batch order within each
  // group, then issue one native MultiGet per non-empty shard and scatter
  // the per-key results back.  Without an explicit snapshot each shard
  // picks its own read point (shard order) — the same view GetSnapshot()
  // would have pinned.
  std::vector<std::vector<size_t>> groups(shards_.size());
  for (size_t i = 0; i < count; i++) {
    groups[ShardOf(keys[i], map_.num_shards)].push_back(i);
  }

  std::vector<Slice> shard_keys;
  std::vector<std::string> shard_values;
  std::vector<Status> shard_statuses;
  for (uint32_t shard = 0; shard < shards_.size(); shard++) {
    const std::vector<size_t>& idx = groups[shard];
    if (idx.empty()) continue;
    shard_keys.clear();
    shard_keys.reserve(idx.size());
    for (size_t i : idx) shard_keys.push_back(keys[i]);
    shard_values.assign(idx.size(), std::string());
    shard_statuses.assign(idx.size(), Status::OK());
    shards_[shard]->MultiGet(RouteRead(options, shard), idx.size(),
                             shard_keys.data(), shard_values.data(),
                             shard_statuses.data());
    for (size_t j = 0; j < idx.size(); j++) {
      values[idx[j]] = std::move(shard_values[j]);
      statuses[idx[j]] = std::move(shard_statuses[j]);
    }
  }
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  // Pin one snapshot per shard for the merge so the view is per-shard
  // consistent even while writers land on other shards mid-scan.
  const Snapshot* own_snapshot =
      options.snapshot == nullptr ? GetSnapshot() : nullptr;
  ReadOptions ro = options;
  if (own_snapshot != nullptr) ro.snapshot = own_snapshot;

  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (uint32_t i = 0; i < shards_.size(); i++) {
    children.push_back(shards_[i]->NewIterator(RouteRead(ro, i)));
  }
  Iterator* merged = NewBytewiseMergingIterator(
      children.data(), static_cast<int>(children.size()));
  if (own_snapshot != nullptr) {
    merged->RegisterCleanup(
        [this, own_snapshot] { ReleaseSnapshot(own_snapshot); });
  }
  return merged;
}

const Snapshot* ShardedDB::GetSnapshot() {
  auto* snapshot = new ShardedSnapshot();
  snapshot->shards_.reserve(shards_.size());
  for (auto& shard : shards_) {
    snapshot->shards_.push_back(shard->GetSnapshot());
  }
  return snapshot;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  auto* sharded = static_cast<const ShardedSnapshot*>(snapshot);
  for (size_t i = 0; i < shards_.size(); i++) {
    shards_[i]->ReleaseSnapshot(sharded->shards()[i]);
  }
  delete sharded;
}

Status ShardedDB::WaitForQuiescence() {
  for (auto& shard : shards_) {
    Status s = shard->WaitForQuiescence();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedDB::FlushAll() {
  for (auto& shard : shards_) {
    Status s = shard->FlushAll();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

DbStats ShardedDB::GetStats() {
  DbStats total;
  for (auto& shard : shards_) total += shard->GetStats();
  return total;
}

const AmpStats& ShardedDB::amp_stats() const {
  agg_amp_stats_.Reset();
  for (const auto& shard : shards_) agg_amp_stats_.Add(shard->amp_stats());
  return agg_amp_stats_;
}

Status ShardedDB::CheckInvariants(bool quiescent) {
  for (size_t i = 0; i < shards_.size(); i++) {
    Status s = shards_[i]->CheckInvariants(quiescent);
    if (!s.ok()) {
      return Status::Corruption("shard " + std::to_string(i),
                                s.ToString());
    }
  }
  return Status::OK();
}

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  if (property == Slice("iamdb.shardmap")) {
    *value = FormatShardMap(map_);
    return true;
  }
  if (property == Slice("iamdb.shard-stats")) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "shards=%u hash=%s\n", map_.num_shards,
                  map_.hash.c_str());
    value->append(buf);
    for (size_t i = 0; i < shards_.size(); i++) {
      value->append("[shard " + std::to_string(i) + "]\n");
      value->append(FormatDbStats(shards_[i]->GetStats()));
    }
    return true;
  }
  if (property == Slice("iamdb.approximate-memory-usage")) {
    // Numeric property: sum instead of concatenating.
    uint64_t total = 0;
    for (auto& shard : shards_) {
      std::string v;
      if (!shard->GetProperty(property, &v)) return false;
      total += std::strtoull(v.c_str(), nullptr, 10);
    }
    *value = std::to_string(total);
    return true;
  }
  // Text properties: concatenate per-shard sections.
  for (size_t i = 0; i < shards_.size(); i++) {
    std::string v;
    if (!shards_[i]->GetProperty(property, &v)) {
      value->clear();
      return false;
    }
    value->append("[shard " + std::to_string(i) + "]\n");
    value->append(v);
  }
  return true;
}

}  // namespace iamdb
