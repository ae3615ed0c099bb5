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

#include "core/options.h"
#include "memtable/write_batch.h"
#include "stats/amp_stats.h"
#include "stats/io_stats.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace iamdb {

class Snapshot;

// Point-in-time statistics a benchmark can sample.
struct DbStats {
  double total_write_amp = 0;           // excludes WAL (paper convention)
  std::vector<double> level_write_amp;  // [0] = first on-disk level
  std::vector<uint64_t> level_bytes;
  std::vector<int> level_node_counts;
  uint64_t user_bytes = 0;
  uint64_t space_used_bytes = 0;  // live table file footprint
  uint64_t cache_usage = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  int mixed_level = 0;  // AMT engines: current m (0 = none/unknown)
  int mixed_level_k = 0;
  // Estimated bytes of outstanding compaction work (engine-specific).
  uint64_t pending_debt_bytes = 0;
  uint64_t stall_micros = 0;
  IoStatsSnapshot io;
  // Two-lane background scheduler: tasks waiting in each pool lane.
  uint64_t flush_queue_depth = 0;
  uint64_t compact_queue_depth = 0;
  // Key-range shards fanned out by partitioned subcompactions (cumulative).
  uint64_t subcompactions_run = 0;
  // Total time background I/O spent blocked in the rate limiter, SUMMED
  // PER THREAD — with several threads blocked concurrently this exceeds
  // wall-clock run time (cumulative; 0 when pacing is off).
  uint64_t rate_limiter_wait_micros = 0;
  // Wall-clock time during which at least one background thread sat
  // blocked in the limiter (overlapping waits counted once) — "how long
  // was pacing the bottleneck".  Wire tag 32.
  uint64_t rate_limiter_paced_wall_micros = 0;
  // Adaptive pacing gauges (wire tags 29-31; 0 when pacing.adaptive is
  // off).  Rates sum across shards — the aggregate is the cluster-wide
  // background I/O budget / ingest estimate.
  uint64_t pacer_rate_bytes_per_sec = 0;
  uint64_t pacer_ingest_bytes_per_sec = 0;
  uint64_t pacer_retunes = 0;
  // Serving-layer reactor counters (wire tags 23-28).  Filled only by the
  // server's INFO path so remote stats consumers see the reactor alongside
  // the engine; always zero in an embedded DB::GetStats().
  uint64_t server_loop_iterations = 0;
  uint64_t server_writev_calls = 0;
  uint64_t server_responses_written = 0;
  uint64_t server_output_buffer_hwm = 0;
  uint64_t server_backpressure_stalls = 0;
  uint64_t server_accept_errors = 0;
  // Per-block compression gauges (wire tags 33-42; all zero with
  // compression off and no compressed tables read).  input/stored bytes
  // compare the uncompressed size of built data blocks against what was
  // written; block counts split per codec, with raw_fallback counting
  // blocks the codec declined or that missed the ratio threshold.
  uint64_t compress_input_bytes = 0;
  uint64_t compress_stored_bytes = 0;
  uint64_t compress_columnar_blocks = 0;
  uint64_t compress_lz_blocks = 0;
  uint64_t compress_raw_fallback_blocks = 0;
  uint64_t decompressed_blocks = 0;
  uint64_t decompress_micros = 0;
  // Compressed-block cache tier (second LruCache; see
  // Options::compressed_cache_capacity).
  uint64_t compressed_cache_usage = 0;
  uint64_t compressed_cache_hits = 0;
  uint64_t compressed_cache_misses = 0;
  // Unified memory arbiter (all zero when memory_budget_bytes == 0).
  // budget = the pooled budget; write/read = the current division;
  // retunes = rebalance passes evaluated; shifts = passes that moved the
  // split.  mixed_level_retunes counts (m,k) changes after open — tree
  // growth or an arbiter re-division moving the tuner's budget.
  uint64_t arbiter_budget_bytes = 0;
  uint64_t arbiter_write_bytes = 0;
  uint64_t arbiter_read_bytes = 0;
  uint64_t arbiter_retunes = 0;
  uint64_t arbiter_shifts = 0;
  uint64_t mixed_level_retunes = 0;
  // Batched MultiGet gauges (wire tags 49-52; all zero until the first
  // MultiGet).  coalesced_reads counts vectored device reads that covered
  // 2+ adjacent blocks; coalesced_blocks the blocks they fetched — so
  // blocks-per-read = coalesced_blocks / coalesced_reads.
  uint64_t multiget_batches = 0;
  uint64_t multiget_keys = 0;
  uint64_t multiget_coalesced_reads = 0;
  uint64_t multiget_coalesced_blocks = 0;
};

// Aggregation across DB instances (ShardedDB sums its shards' stats).
// Counters and byte totals add; per-level vectors pad-and-add; the write
// amps combine weighted by each side's user_bytes (so the result is
// total-bytes-written / total-user-bytes, not an average of ratios);
// mixed_level / mixed_level_k take the max — they are structural
// per-instance values, the per-shard breakdown lives under the
// "iamdb.shard-stats" property.  Every DbStats field must be handled here
// and in the wire codec; tests/db_stats_test.cc fails if either misses a
// field.
DbStats& operator+=(DbStats& lhs, const DbStats& rhs);

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
  //   "iamdb.approximate-memory-usage" — memtable + cache bytes
  // Returns false for unknown properties.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Validates the engine's structural invariants (testing hook).  Pass
  // quiescent=true only after WaitForQuiescence.
  virtual Status CheckInvariants(bool quiescent) = 0;

  // ---- sharding surface (ShardedDB overrides; docs/SHARDING.md) ----
  // Hash-partition fan-out of this instance: 1 for a plain DBImpl, N for a
  // ShardedDB.  Shard-scoped SCAN requests on the wire use these so a
  // cluster-aware client can stream one shard at a time and merge
  // client-side.
  virtual int NumShards() const { return 1; }
  // Iterator over just one shard's keys (shard in [0, NumShards())).
  // For an unsharded DB, shard 0 is the whole keyspace.
  virtual Iterator* NewShardIterator(const ReadOptions& options, int shard) {
    if (shard != 0) {
      return NewErrorIterator(Status::InvalidArgument("shard out of range"));
    }
    return NewIterator(options);
  }
};

// Deletes all files of the named database.
Status DestroyDB(const std::string& name, const Options& options);

}  // namespace iamdb
