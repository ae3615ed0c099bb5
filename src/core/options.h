// User-facing configuration.  One Options struct drives all three policies:
//   engine = kLeveled                    -> LevelDB/RocksDB-style LSM baseline
//   engine = kAmt, amt.policy = kLsa     -> the LSA-tree (appends only)
//   engine = kAmt, amt.policy = kIam     -> the IAM-tree (appends + merges)
// With amt.k = 1 and amt.fixed_mixed_level = 1, the AMT engine degenerates
// into merge-always behaviour (paper Sec 1: "IAM degenerates into LSM").
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "table/table_options.h"

namespace iamdb {

class Env;
class LruCache;
class Snapshot;

// Background pool sized from the machine: single-core stays single-threaded,
// multi-core gets one worker per core (so at least two: one can always take
// a flush while the others merge) capped at 8 — background work rarely
// scales past that and the pool should not crowd out foreground threads.
inline int DefaultBackgroundThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 1;
  return static_cast<int>(hw > 8 ? 8 : hw);
}

enum class EngineType {
  kLeveled,  // classic leveled LSM (the paper's LevelDB/RocksDB baseline)
  kAmt,      // append/merge tree (LSA or IAM by AmtOptions::policy)
};

enum class AmtPolicy {
  kLsa,  // append whenever the child is not full (merge only full children)
  kIam,  // appending levels above m, k-sequence mixed level, merging below
};

struct AmtOptions {
  AmtPolicy policy = AmtPolicy::kIam;

  // Fan-out t: threshold number of nodes in L1 is t, L2 is t^2, ...
  // (paper default 10).  A node splits when its children reach 2t.
  int fanout = 10;

  // Max sequences per node in the mixed level (paper Table 3 sweeps 1..3).
  int k = 3;

  // Mixed level selection.  auto_tune_mk picks the largest (m, k) satisfying
  // paper Eq. 2 against memory_budget_bytes; otherwise fixed_mixed_level is
  // used (<= 0 means "no mixed level": every on-disk level appends, i.e.
  // pure LSA behaviour regardless of policy).
  bool auto_tune_mk = true;
  int fixed_mixed_level = 0;

  // Memory available for caching appended sequences (the "M" of Eq. 2).
  // Defaults to the block-cache capacity when 0.  The tuner plans with M/2
  // (the paper's choice), leaving the rest for merge-generated sequences.
  uint64_t memory_budget_bytes = 0;

  // FLSM-emulation for Sec 6.8: rewrite records on every flush instead of
  // metadata-moving nodes with no children.
  bool rewrite_on_flush = false;

  // --- ablation knobs (defaults = the paper's design) ---
  // A full node splits when its child count reaches this multiple of t
  // (paper: 2).
  double split_child_factor = 2.0;
  // Combine candidate selection: smallest Tcn with two adjacent siblings
  // (paper Sec 4.2.3) vs naively taking the first combinable node.
  bool combine_min_tcn = true;
};

struct LeveledOptions {
  // Number of L0 files that triggers a compaction (LevelDB default 4).
  int l0_compaction_trigger = 4;
  // L0 file counts for slowdown / stop (LevelDB defaults 8 / 12).
  int l0_slowdown_trigger = 8;
  int l0_stop_trigger = 12;
  // Max bytes for L1; each deeper level is 10x (paper Sec 6.1 uses 640MB).
  uint64_t max_bytes_level1 = 64ull << 20;
  double level_multiplier = 10.0;
  // Output file size (paper: 64MB files, half the 128MB node threshold).
  uint64_t target_file_size = 2ull << 20;
  // RocksDB-flavour: compact the most over-full level first and apply
  // pending-bytes stalls, preventing overflow accumulation.  LevelDB-flavour
  // (false) compacts lazily and lets levels overflow (paper Sec 6.2).
  bool strict_level_limits = false;
  // Pending compaction debt thresholds for slowdown/stop when strict.
  uint64_t soft_pending_bytes = 256ull << 20;
  uint64_t hard_pending_bytes = 512ull << 20;
};

struct Options {
  // -- shared --
  Env* env = nullptr;  // required
  bool create_if_missing = true;
  bool error_if_exists = false;
  bool paranoid_checks = false;

  EngineType engine = EngineType::kAmt;

  // Node capacity Ct (paper: 128MB; scaled default 4MB).  Also the
  // memtable flush threshold: the memtable is LSA's L0.
  uint64_t node_capacity = 4ull << 20;

  // Background compaction threads ("-nt" in the paper's evaluation).
  // Defaults to the core count (clamped to [2, 8]; 1 on single-core).
  int background_threads = DefaultBackgroundThreads();

  // Max key-range shards a single merge job may fan out into (partitioned
  // subcompactions).  0 means "same as background_threads"; 1 disables
  // sharding.  Sharding never changes results — the equivalence is asserted
  // by subcompaction_test across all three engines.
  int max_subcompactions = 0;

  // Block cache capacity; models the memory available for data blocks.
  // Entries are charged at uncompressed (resident) size.
  uint64_t block_cache_capacity = 64ull << 20;

  // Capacity of the compressed-block cache tier (0 = tier off).  Holds
  // still-compressed block bytes (charged at stored size) so an
  // uncompressed-tier miss decompresses from memory instead of re-reading
  // the device.  Only useful when table.compression is enabled.
  uint64_t compressed_cache_capacity = 0;

  // WAL fsync on every write batch (benchmarks follow the paper and leave
  // this off; crash tests turn it on).
  bool sync_wal = false;

  TableOptions table;
  AmtOptions amt;
  LeveledOptions leveled;
};

struct ReadOptions {
  // Whether blocks read from the device fill the block cache.  When false,
  // point reads still probe both cache tiers but fill neither.  Every
  // iterator (unless cache_only) reads each sequence ahead through a window
  // of its own, one device read per window, and a backward step reads only
  // the block it lands on.  When true (scans) it probes the caches first,
  // fills them only with the blocks it serves, and its window grows with
  // the run: one block after a Seek, then about as much as the run has
  // served, up to SequenceReader::kScanReadaheadBytes (16 KB).  When false
  // (compaction inputs, the tree digest, iamdb_dump) it neither probes nor
  // fills the caches and reads SequenceReader::kReadaheadBytes (256 KB) on
  // every forward miss.
  bool fill_cache = true;
  // nullptr means "read the latest committed state".
  const Snapshot* snapshot = nullptr;
  // Cache-only tier: the read never does device I/O, never opens a table
  // reader and never waits on a lock held across I/O.  Where it would
  // have to, it returns Status::Incomplete instead — per key for point
  // reads, as the iterator's status for scans.  Keys answered from the
  // memtables or from either block-cache tier come back as usual, except
  // that a batch stops at the first table probe that leaves a key
  // Incomplete: every key not settled by then (memtable keys always are)
  // comes back Incomplete too, since the caller goes to the device for
  // those anyway.  The server's reactor threads read with this set and
  // hand a read that comes back Incomplete to a worker.
  bool cache_only = false;
};

struct WriteOptions {
  bool sync = false;
};

}  // namespace iamdb
