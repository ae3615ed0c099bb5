// Public API of IamDB — a persistent, crash-recovering, MVCC key-value
// store whose on-disk organisation is selected by Options::engine:
// a leveled LSM (the paper's LevelDB/RocksDB baseline), the LSA-tree, or
// the IAM-tree.
//
//   iamdb::Options options;
//   options.env = iamdb::Env::Default();
//   options.engine = iamdb::EngineType::kAmt;      // IAM by default
//   std::unique_ptr<iamdb::DB> db;
//   auto s = iamdb::DB::Open(options, "/tmp/mydb", &db);
//   db->Put({}, "key", "value");
//   std::string v;
//   db->Get({}, "key", &v);
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/db_stats_fields.h"
#include "core/options.h"
#include "memtable/write_batch.h"
#include "stats/amp_stats.h"
#include "stats/io_stats.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace iamdb {

class Snapshot;

// Point-in-time statistics a benchmark can sample.  The members, their
// wire tags and how they aggregate are the rows of core/db_stats_fields.h.
struct DbStats {
#define IAMDB_DB_STATS_MEMBER(type, member, tag, agg, group, help) \
  type member{};
#define IAMDB_DB_STATS_IO_MEMBER(type, member, tag, agg, group, help)
  IAMDB_DB_STATS_FIELDS(IAMDB_DB_STATS_MEMBER, IAMDB_DB_STATS_IO_MEMBER)
#undef IAMDB_DB_STATS_MEMBER
#undef IAMDB_DB_STATS_IO_MEMBER
  IoStatsSnapshot io;  // the table's IO rows
};

// The denominator of the table's kAmp rows.
inline constexpr uint64_t DbStats::*kAmpWeight = &DbStats::user_bytes;

// Aggregation across DB instances (ShardedDB sums its shards' stats), by
// each field's aggregation column in core/db_stats_fields.h.
DbStats& operator+=(DbStats& lhs, const DbStats& rhs);

// Every field EncodeDbStats carries, one `name: value` line each in wire
// order; an omit-when-zero group is left out exactly when the wire leaves
// it out.  The per-level vectors follow as one line per level.
std::string FormatDbStats(const DbStats& stats);

class DB {
 public:
  // Opens (creating if allowed) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value);
  virtual Status Delete(const WriteOptions& options, const Slice& key);
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // NotFound if the key is absent (or deleted) at the read point;
  // Incomplete if options.cache_only is set and the answer needs the
  // device.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Batched point lookup: fills statuses[i]/values[i] for keys[i], each
  // exactly what Get(options, keys[i], &values[i]) would return at the
  // same read point.  All keys are read at ONE snapshot (options.snapshot
  // if set, else the committed state when the batch starts).  DBImpl and
  // ShardedDB override this with a native implementation that acquires the
  // read view once and coalesces table I/O across the batch; the base
  // implementation loops over Get.
  virtual void MultiGet(const ReadOptions& options, size_t count,
                        const Slice* keys, std::string* values,
                        Status* statuses);

  // Bidirectional iterator over user keys (forward range scans are the
  // paper's workloads; reverse iteration is supported too).  Caller
  // deletes the iterator before the DB is closed.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Blocks until all pending flushes/compactions are complete (benchmark
  // settling; the paper's "stable performance" measurements).
  virtual Status WaitForQuiescence() = 0;

  // Forces the immutable memtable (if any) plus current memtable contents
  // to be flushed and compactions drained.
  virtual Status FlushAll() = 0;

  virtual DbStats GetStats() = 0;
  virtual const AmpStats& amp_stats() const = 0;

  // Human-readable introspection (LevelDB-style).  Supported properties:
  //   "iamdb.stats"   — amplification summary (per level / per reason)
  //   "iamdb.levels"  — node count, bytes and sequences per level
  //   "iamdb.tree-digest" — content digest of the tree, independent of
  //                     node ids, file numbers and file layout
  //   "iamdb.approximate-memory-usage" — memtable + cache bytes
  // A ShardedDB answers "iamdb.shardmap" (the SHARDMAP manifest body) and
  // "iamdb.shard-stats" (per-shard DbStats), sums the memory usage and
  // concatenates the other properties per shard.  Returns false for
  // unknown properties.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Validates the engine's structural invariants (testing hook).  Pass
  // quiescent=true only after WaitForQuiescence.
  virtual Status CheckInvariants(bool quiescent) = 0;
};

// Deletes all files of the named database.
Status DestroyDB(const std::string& name, const Options& options);

}  // namespace iamdb
