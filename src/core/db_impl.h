// DBImpl: the shared half of the database — WAL + group commit, memtable
// rotation, snapshots, stall control, background scheduling, recovery and
// file garbage collection.  The on-disk half is a TreeEngine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/db.h"
#include "core/dbformat.h"
#include "core/manifest.h"
#include "core/snapshot.h"
#include "core/tree_engine.h"
#include "env/counting_env.h"
#include "memtable/memtable.h"
#include "table/cache.h"
#include "table/compressor.h"
#include "util/published_ptr.h"
#include "util/thread_pool.h"
#include "wal/log_writer.h"

namespace iamdb {

struct WriterItem;

// Immutable snapshot of the in-memory read state, swapped atomically so the
// read hot path never touches the write mutex (mirrors how engines publish
// TreeVersionPtr).  Holds memtable references for its whole lifetime, so a
// reader that loaded a view can keep using `mem`/`imm` after rotation or
// flush retires them.  `last_sequence` is the newest sequence that was
// visible when the view was installed — readers use the fresher atomic
// DBImpl counter for their snapshot, the field is a floor for diagnostics.
struct ReadView {
  ReadView(MemTable* m, MemTable* i, SequenceNumber seq);
  ~ReadView();

  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  MemTable* const mem;
  MemTable* const imm;  // may be null
  const SequenceNumber last_sequence;
};

class DBImpl final : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);
  ~DBImpl() override;

  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  void MultiGet(const ReadOptions& options, size_t count, const Slice* keys,
                std::string* values, Status* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status WaitForQuiescence() override;
  Status FlushAll() override;
  DbStats GetStats() override;
  const AmpStats& amp_stats() const override { return amp_stats_; }
  Status CheckInvariants(bool quiescent) override {
    return engine_->CheckInvariants(quiescent);
  }
  bool GetProperty(const Slice& property, std::string* value) override;

  // ---- Engine-facing surface (engines run under mutex_ unless noted) ----

  Env* env() { return counting_env_.get(); }
  const Options& options() const { return options_; }
  const std::string& dbname() const { return dbname_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }
  AmpStats* amp_stats_mutable() { return &amp_stats_; }
  LruCache* block_cache() { return block_cache_.get(); }
  // Compressed-block tier; nullptr when compressed_cache_capacity == 0.
  LruCache* compressed_block_cache() { return compressed_block_cache_.get(); }

  std::mutex& mutex() { return mutex_; }
  MemTable* imm() { return imm_; }

  uint64_t NewFileNumber() { return next_file_number_++; }   // mutex held
  uint64_t NewNodeId() { return next_node_id_++; }           // mutex held

  // Oldest sequence any live snapshot can observe.  Takes snapshots_mu_
  // internally; callers hold mutex_ (engines), never snapshots_mu_.
  SequenceNumber SmallestSnapshot() const {
    std::lock_guard<std::mutex> l(snapshots_mu_);
    return snapshots_.empty()
               ? last_sequence_.load(std::memory_order_acquire)
               : snapshots_.oldest()->sequence();
  }

  // Durably apply an edit (mutex held).  Counters are stamped in.
  Status LogEdit(VersionEdit* edit);

  // Called by the engine after the imm flush edit is applied (mutex held):
  // releases the immutable memtable and obsolete WAL files.
  void ImmFlushed();

  uint64_t CurrentLogNumber() const { return log_number_; }  // mutex held

  // Shared background pool (engines fan subcompaction shards out on it; see
  // util/task_group.h for why that can't deadlock).  No mutex needed.
  ThreadPool* pool() { return pool_.get(); }

  // Counts subcompaction shards fanned out by engines (no mutex).
  void RecordSubcompactions(uint64_t n) {
    subcompactions_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  friend class DB;

  Status Recover();
  Status Initialize();  // Recover + engine construction; called by Open
  Status WriteSnapshotManifest();  // fresh MANIFEST with full state
  Status ReplayWal(uint64_t log_number, SequenceNumber* max_sequence);
  Status SwitchMemTable();  // mutex held
  void PublishReadView();   // mutex held; release-installs {mem_, imm_}
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock);
  WriteBatch* BuildBatchGroup(WriterItem** last_writer);
  // One scheduling pass (mutex held).  Runs only after an event that can
  // make work runnable: memtable rotation, a job completing, a stalled
  // writer waking, FlushAll/WaitForQuiescence (docs/CONCURRENCY.md).
  void MaybeScheduleBackgroundWork();
  void BackgroundCall(TreeEngine::WorkLane lane);
  void RemoveObsoleteFiles();  // mutex held (open/flush time)
  // Point reads of `count` keys at one snapshot; Get is a batch of one.
  void ReadBatch(const ReadOptions& options, size_t count, const Slice* keys,
                 std::string* values, Status* statuses);
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* latest_snapshot);

  Options options_;
  std::string dbname_;
  IoStats io_stats_;
  std::unique_ptr<CountingEnv> counting_env_;
  AmpStats amp_stats_;
  std::unique_ptr<LruCache> block_cache_;
  std::unique_ptr<LruCache> compressed_block_cache_;  // tier 2; may be null
  CompressionStats compression_stats_;
  InternalKeyComparator icmp_;

  // mutex_ serializes the WRITE side only: the writer queue, memtable
  // rotation, background scheduling, and manifest edits.  The read hot path
  // (Get / NewIterator) never acquires it — readers load read_view_ and
  // last_sequence_ with acquire semantics (docs/CONCURRENCY.md).
  std::mutex mutex_;
  std::condition_variable bg_cv_;
  std::atomic<bool> shutting_down_{false};

  MemTable* mem_ = nullptr;   // mutated under mutex_; readers use read_view_
  MemTable* imm_ = nullptr;
  std::unique_ptr<WritableFile> log_file_;
  std::unique_ptr<log::Writer> log_;
  uint64_t log_number_ = 0;
  std::set<uint64_t> old_log_numbers_;  // released once imm flushes

  // Lock-free read-path state.  read_view_ is installed under mutex_ (by
  // rotation and imm release) and read without any lock via epoch guards
  // (PublishedPtr, util/published_ptr.h); last_sequence_ is
  // release-published by the front writer after the memtable insert, so an
  // acquire load observes every entry at or below the loaded sequence.
  PublishedPtr<const ReadView> read_view_;
  std::atomic<SequenceNumber> last_sequence_{0};

  uint64_t next_file_number_ = 2;
  uint64_t next_node_id_ = 1;

  std::deque<WriterItem*> writers_;
  WriteBatch group_batch_;

  // Snapshot bookkeeping has its own small lock so GetSnapshot /
  // ReleaseSnapshot (and server SCAN setup) never contend with writers.
  // Lock order: mutex_ before snapshots_mu_ (SmallestSnapshot is called by
  // engines holding mutex_); never the reverse.
  mutable std::mutex snapshots_mu_;
  SnapshotList snapshots_;

  std::unique_ptr<ManifestWriter> manifest_;
  std::unique_ptr<TreeEngine> engine_;
  std::unique_ptr<ThreadPool> pool_;
  // Two-lane scheduling accounting (mutex_): at most one flush worker —
  // flushes serialize on the single imm anyway — plus one compaction
  // worker per job; both only for jobs the engine says are runnable now.
  bool flush_scheduled_ = false;
  int compactions_scheduled_ = 0;
  int ScheduledWorkers() const {  // mutex held
    return (flush_scheduled_ ? 1 : 0) + compactions_scheduled_;
  }
  Status bg_error_;
  std::atomic<uint64_t> stall_micros_{0};
  std::atomic<uint64_t> subcompactions_{0};
  // Batched-read accounting (DbStats multiget gauges; no mutex).
  std::atomic<uint64_t> multiget_batches_{0};
  std::atomic<uint64_t> multiget_keys_{0};
  RecoveredState recovered_;  // staging between Recover and engine init
};

}  // namespace iamdb
