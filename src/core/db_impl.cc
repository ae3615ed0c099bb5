#include "core/db_impl.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory_resource>
#include <optional>

#include "core/amt/amt_engine.h"
#include "core/compaction_output.h"
#include "core/db_iter.h"
#include "core/filename.h"
#include "core/level_iters.h"
#include "core/leveled/leveled_engine.h"
#include "env/buffered_writable_file.h"
#include "table/merging_iterator.h"
#include "util/crc32c.h"
#include "util/sync_point.h"
#include "wal/log_reader.h"

namespace iamdb {

ReadView::ReadView(MemTable* m, MemTable* i, SequenceNumber seq)
    : mem(m), imm(i), last_sequence(seq) {
  mem->Ref();
  if (imm != nullptr) imm->Ref();
}

ReadView::~ReadView() {
  mem->Unref();
  if (imm != nullptr) imm->Unref();
}

// Group-commit queue entry.
struct WriterItem {
  Status status;
  WriteBatch* batch = nullptr;
  bool sync = false;
  bool done = false;
  std::condition_variable cv;
};

// ---------------------------------------------------------------------------
// Construction / destruction / open

DBImpl::DBImpl(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname) {
  counting_env_ = std::make_unique<CountingEnv>(options.env, &io_stats_);
  block_cache_ = std::make_unique<LruCache>(options.block_cache_capacity);
  options_.table.block_cache = block_cache_.get();
  if (options.compressed_cache_capacity > 0) {
    compressed_block_cache_ =
        std::make_unique<LruCache>(options.compressed_cache_capacity);
    options_.table.compressed_block_cache = compressed_block_cache_.get();
  }
  options_.table.compression_stats = &compression_stats_;
  pool_ = std::make_unique<ThreadPool>(std::max(1, options.background_threads));
}

DBImpl::~DBImpl() {
  {
    std::unique_lock<std::mutex> l(mutex_);
    shutting_down_.store(true, std::memory_order_release);
    while (ScheduledWorkers() > 0) bg_cv_.wait(l);
  }
  pool_.reset();  // joins workers
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
}

namespace {

// Reject configurations that cannot work rather than failing obscurely
// later (I.29-style precondition checking at the API boundary).
Status ValidateOptions(const Options& options) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("Options::env is required");
  }
  if (options.node_capacity < (4u << 10)) {
    return Status::InvalidArgument(
        "Options::node_capacity must be at least 4KB");
  }
  if (options.table.block_size < 128 || options.table.block_size > (4u << 20)) {
    return Status::InvalidArgument(
        "Options::table.block_size must be in [128B, 4MB]");
  }
  if (options.table.bloom_bits_per_key < 0 ||
      options.table.bloom_bits_per_key > 64) {
    return Status::InvalidArgument("bloom_bits_per_key must be in [0, 64]");
  }
  if (options.background_threads < 1 || options.background_threads > 64) {
    return Status::InvalidArgument("background_threads must be in [1, 64]");
  }
  if (options.max_subcompactions < 0 || options.max_subcompactions > 64) {
    return Status::InvalidArgument("max_subcompactions must be in [0, 64]");
  }
  if (options.engine == EngineType::kAmt) {
    if (options.amt.fanout < 2) {
      return Status::InvalidArgument("amt.fanout (t) must be at least 2");
    }
    if (options.amt.k < 1) {
      return Status::InvalidArgument("amt.k must be at least 1");
    }
    if (options.amt.split_child_factor <= 1.0) {
      return Status::InvalidArgument(
          "amt.split_child_factor must exceed 1 (children per node)");
    }
  } else {
    if (options.leveled.target_file_size < (1u << 10)) {
      return Status::InvalidArgument("leveled.target_file_size too small");
    }
    if (options.leveled.level_multiplier < 2) {
      return Status::InvalidArgument("leveled.level_multiplier must be >= 2");
    }
    if (options.leveled.l0_compaction_trigger < 1) {
      return Status::InvalidArgument("l0_compaction_trigger must be >= 1");
    }
  }
  return Status::OK();
}

}  // namespace

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  Status validation = ValidateOptions(options);
  if (!validation.ok()) return validation;
  auto impl = std::make_unique<DBImpl>(options, name);
  Status s = impl->Initialize();
  if (!s.ok()) return s;
  *dbptr = std::move(impl);
  return Status::OK();
}

Status DBImpl::Initialize() {
  Env* env = counting_env_.get();
  env->CreateDir(dbname_);

  Status s = Recover();
  if (!s.ok()) return s;

  // Construct the engine over the recovered node sets.
  switch (options_.engine) {
    case EngineType::kLeveled:
      engine_ = std::make_unique<LeveledEngine>(this);
      break;
    case EngineType::kAmt:
      engine_ = std::make_unique<AmtEngine>(this);
      break;
  }
  s = engine_->Recover(recovered_);
  if (!s.ok()) return s;
  recovered_ = RecoveredState();  // release staging memory

  // Fresh WAL + fresh manifest snapshot; then GC leftovers.  Replayed WALs
  // stay in old_log_numbers_ until the recovered memtable flushes.
  std::unique_lock<std::mutex> l(mutex_);
  s = SwitchMemTable();
  if (!s.ok()) return s;
  s = WriteSnapshotManifest();
  if (!s.ok()) return s;
  RemoveObsoleteFiles();
  MaybeScheduleBackgroundWork();
  return Status::OK();
}

Status DBImpl::Recover() {
  Env* env = counting_env_.get();
  const std::string current = CurrentFileName(dbname_);

  if (!env->FileExists(current)) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }
    // Fresh database: empty state.
    recovered_ = RecoveredState();
    mem_ = new MemTable();
    mem_->Ref();
    return Status::OK();
  }
  if (options_.error_if_exists) {
    return Status::InvalidArgument(dbname_, "exists (error_if_exists)");
  }

  Status s = RecoverManifest(env, dbname_, &recovered_);
  if (!s.ok()) return s;
  next_file_number_ = recovered_.next_file_number;
  next_node_id_ = recovered_.next_node_id;
  last_sequence_.store(recovered_.last_sequence, std::memory_order_relaxed);

  // Replay WALs at or after the recorded log number, oldest first.
  std::vector<std::string> children;
  env->GetChildren(dbname_, &children);
  std::vector<uint64_t> logs;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kLogFile &&
        number >= recovered_.log_number) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  mem_ = new MemTable();
  mem_->Ref();
  SequenceNumber max_sequence = last_sequence_.load(std::memory_order_relaxed);
  for (uint64_t log_number : logs) {
    s = ReplayWal(log_number, &max_sequence);
    if (!s.ok()) return s;
    next_file_number_ = std::max(next_file_number_, log_number + 1);
    // Keep replayed WALs until the recovered data is flushed.
    old_log_numbers_.insert(log_number);
  }
  if (max_sequence > last_sequence_.load(std::memory_order_relaxed)) {
    last_sequence_.store(max_sequence, std::memory_order_relaxed);
  }
  return Status::OK();
}

namespace {
struct WalRecoveryReporter : public log::Reader::Reporter {
  Status* status;
  bool paranoid;
  void Corruption(size_t, const Status& s) override {
    if (paranoid && status->ok()) *status = s;
  }
};
}  // namespace

Status DBImpl::ReplayWal(uint64_t log_number, SequenceNumber* max_sequence) {
  Env* env = counting_env_.get();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(LogFileName(dbname_, log_number), &file);
  if (!s.ok()) return s;

  Status wal_status;
  WalRecoveryReporter reporter;
  reporter.status = &wal_status;
  reporter.paranoid = options_.paranoid_checks;
  log::Reader reader(file.get(), &reporter, true);

  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;  // malformed header
    WriteBatchInternal::SetContents(&batch, record);
    s = WriteBatchInternal::InsertInto(&batch, mem_);
    if (!s.ok()) return s;
    SequenceNumber last = WriteBatchInternal::Sequence(&batch) +
                          WriteBatchInternal::Count(&batch) - 1;
    *max_sequence = std::max(*max_sequence, last);
  }
  return wal_status;
}

Status DBImpl::WriteSnapshotManifest() {
  // Full-state base edit from the engine's current version.  The recorded
  // log number is the OLDEST log still carrying unflushed data.
  VersionEdit base;
  uint64_t oldest_live_log =
      old_log_numbers_.empty() ? log_number_ : *old_log_numbers_.begin();
  base.SetLogNumber(oldest_live_log);
  base.SetNextFileNumber(next_file_number_ + 1);  // reserve manifest number
  base.SetNextNodeId(next_node_id_);
  base.SetLastSequence(last_sequence_.load(std::memory_order_relaxed));
  TreeVersionPtr version = engine_->current_version();
  base.SetNumLevels(version->num_levels());
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& node : version->level(level)) {
      base.AddNode(ToEdit(*node, level));
    }
  }
  uint64_t manifest_number = next_file_number_++;
  IAMDB_SYNC_POINT("DBImpl::WriteSnapshotManifest:BeforeCreate");
  manifest_ = std::make_unique<ManifestWriter>(counting_env_.get(), dbname_);
  return manifest_->Create(manifest_number, base);
}

void DBImpl::RemoveObsoleteFiles() {
  IAMDB_SYNC_POINT("DBImpl::RemoveObsoleteFiles:Start");
  // Live set: current log(s), current manifest, files referenced by the
  // engine's current version or pinned by FileLifetime refs elsewhere.
  std::set<uint64_t> live_tables;
  TreeVersionPtr version = engine_->current_version();
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& node : version->level(level)) {
      if (node->file_number != 0) live_tables.insert(node->file_number);
    }
  }

  std::vector<std::string> children;
  counting_env_->GetChildren(dbname_, &children);
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kLogFile:
        keep = (number >= log_number_) ||
               (old_log_numbers_.count(number) > 0);
        break;
      case FileType::kManifestFile:
        keep = (manifest_ != nullptr && number == manifest_->manifest_number());
        break;
      case FileType::kTableFile:
        keep = live_tables.count(number) > 0;
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      case FileType::kCurrentFile:
      case FileType::kUnknown:
        keep = true;
        break;
    }
    if (!keep) {
      counting_env_->RemoveFile(dbname_ + "/" + child);
    }
  }
}

Status DestroyDB(const std::string& name, const Options& options) {
  Env* env = options.env;
  std::vector<std::string> children;
  Status s = env->GetChildren(name, &children);
  if (!s.ok()) return Status::OK();  // nothing to destroy
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type)) {
      env->RemoveFile(name + "/" + child);
    }
  }
  env->RemoveDir(name);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path

Status DB::Put(const WriteOptions& options, const Slice& key,
               const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::SwitchMemTable() {
  // Seal the outgoing WAL.  Every non-current WAL must be fully durable:
  // otherwise a later sync-acknowledged write in the new WAL could survive
  // a crash while earlier unsynced records in the old one are lost,
  // leaving a hole in the recovered history.
  if (log_file_ != nullptr) {
    Status sync_status = log_file_->Sync();
    if (!sync_status.ok()) return sync_status;
  }
  IAMDB_SYNC_POINT("DBImpl::SwitchMemTable:AfterOldWalSeal");
  uint64_t new_log_number = next_file_number_++;
  std::unique_ptr<WritableFile> lfile;
  Status s = counting_env_->NewWritableFile(
      LogFileName(dbname_, new_log_number), &lfile);
  if (!s.ok()) return s;
  IAMDB_SYNC_POINT("DBImpl::SwitchMemTable:AfterNewWal");

  if (log_number_ != 0) old_log_numbers_.insert(log_number_);
  // log::Writer flushes once per record, so each record reaches the env
  // as one write.
  log_file_ = std::make_unique<BufferedWritableFile>(std::move(lfile));
  log_ = std::make_unique<log::Writer>(log_file_.get());
  log_number_ = new_log_number;

  if (mem_ != nullptr) {
    if (mem_->num_entries() > 0) {
      assert(imm_ == nullptr);
      imm_ = mem_;
    } else {
      mem_->Unref();  // nothing to flush; don't cycle an empty imm
    }
  }
  mem_ = new MemTable();
  mem_->Ref();
  PublishReadView();
  return Status::OK();
}

void DBImpl::PublishReadView() {
  // mutex_ held (which is what serializes PublishedPtr::Store callers).
  // The release pointer swap inside Store makes the new memtable pointers
  // visible to any reader whose Acquire observes this view; superseded
  // views are reclaimed by epoch, never under a reader.
  read_view_.Store(std::make_shared<const ReadView>(
      mem_, imm_, last_sequence_.load(std::memory_order_relaxed)));
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock) {
  bool allow_delay = true;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;

    TreeEngine::WritePressure pressure = engine_->GetWritePressure();
    if (allow_delay && pressure == TreeEngine::WritePressure::kSlowdown) {
      // Shed 1ms to give compaction a chance (LevelDB's soft limit).
      lock.unlock();
      uint64_t t0 = counting_env_->NowMicros();
      options_.env->SleepForMicroseconds(1000);
      uint64_t waited = counting_env_->NowMicros() - t0;
      stall_micros_.fetch_add(waited, std::memory_order_relaxed);
      OpIoScope::RecordStall(waited);
      allow_delay = false;
      lock.lock();
      continue;
    }

    if (mem_->data_bytes() < options_.node_capacity) {
      return Status::OK();
    }

    if (imm_ != nullptr || pressure == TreeEngine::WritePressure::kStop) {
      // Hard stall: wait for background progress.
      MaybeScheduleBackgroundWork();
      uint64_t t0 = counting_env_->NowMicros();
      bg_cv_.wait(lock);
      uint64_t waited = counting_env_->NowMicros() - t0;
      stall_micros_.fetch_add(waited, std::memory_order_relaxed);
      OpIoScope::RecordStall(waited);
      continue;
    }

    Status s = SwitchMemTable();
    if (!s.ok()) return s;
    MaybeScheduleBackgroundWork();
  }
}

WriteBatch* DBImpl::BuildBatchGroup(WriterItem** last_writer) {
  assert(!writers_.empty());
  WriterItem* first = writers_.front();
  WriteBatch* result = first->batch;
  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Cap group size; small writes get a smaller cap to bound their latency.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) max_size = size + (128 << 10);

  *last_writer = first;
  auto iter = writers_.begin();
  ++iter;
  for (; iter != writers_.end(); ++iter) {
    WriterItem* w = *iter;
    if (w->sync && !first->sync) break;  // don't promote to sync
    if (w->batch == nullptr) continue;
    size += WriteBatchInternal::ByteSize(w->batch);
    if (size > max_size) break;
    if (result == first->batch) {
      result = &group_batch_;
      assert(WriteBatchInternal::Count(result) == 0);
      WriteBatchInternal::Append(result, first->batch);
    }
    WriteBatchInternal::Append(result, w->batch);
    *last_writer = w;
  }
  return result;
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  WriterItem w;
  w.batch = updates;
  w.sync = options.sync || options_.sync_wal;

  std::unique_lock<std::mutex> l(mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(l);
  }
  if (w.done) return w.status;

  Status status = MakeRoomForWrite(l);
  // Only the front writer (under mutex_) mutates last_sequence_, so a
  // relaxed load here sees the latest value.
  SequenceNumber last_sequence =
      last_sequence_.load(std::memory_order_relaxed);
  WriterItem* last_writer = &w;
  if (status.ok()) {
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    {
      // The front writer owns the log and memtable while unlocked; later
      // writers queue behind it.
      l.unlock();
      Slice contents = WriteBatchInternal::Contents(write_batch);
      IAMDB_SYNC_POINT("DBImpl::Write:BeforeWalAppend");
      status = log_->AddRecord(contents);
      IAMDB_SYNC_POINT("DBImpl::Write:AfterWalAppend");
      if (status.ok() && w.sync) {
        status = log_file_->Sync();
        IAMDB_SYNC_POINT("DBImpl::Write:AfterWalSync");
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      amp_stats_.RecordUserWrite(WriteBatchInternal::UserBytes(write_batch));
      amp_stats_.RecordWal(contents.size());
      l.lock();
    }
    if (write_batch == &group_batch_) group_batch_.Clear();
    // Release-publish AFTER the memtable insert: a reader that acquires a
    // sequence S from last_sequence_ is guaranteed to find every entry at
    // or below S in the (view's) memtables or the engine.
    last_sequence_.store(last_sequence, std::memory_order_release);
  }

  while (true) {
    WriterItem* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  return status;
}

// ---------------------------------------------------------------------------
// Read path

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Status s;
  ReadBatch(options, 1, &key, value, &s);
  return s;
}

void DB::MultiGet(const ReadOptions& options, size_t count, const Slice* keys,
                  std::string* values, Status* statuses) {
  for (size_t i = 0; i < count; ++i) {
    statuses[i] = Get(options, keys[i], &values[i]);
  }
}

void DBImpl::MultiGet(const ReadOptions& options, size_t count,
                      const Slice* keys, std::string* values,
                      Status* statuses) {
  multiget_batches_.fetch_add(1, std::memory_order_relaxed);
  multiget_keys_.fetch_add(count, std::memory_order_relaxed);
  ReadBatch(options, count, keys, values, statuses);
}

// The only point-read path.  Lock-free: acquires no lock the write path
// takes.  Ordering contract (docs/CONCURRENCY.md): load the snapshot
// sequence FIRST, the view second.  Data only ever moves "down" (mem -> imm
// -> engine version), and each stage is installed before the previous one
// is retired, so consulting stages in the order mem, imm, engine — each
// loaded at or after the sequence load — can never miss an entry at or
// below the loaded sequence.  The sequence is loaded once per pass and the
// view acquired once for all mem/imm probes; the version walk sees the
// survivors sorted, so per-table metadata and block I/O coalesce.
void DBImpl::ReadBatch(const ReadOptions& options, size_t count,
                       const Slice* keys, std::string* values,
                       Status* statuses) {
  // Optimistic validation against compaction GC: a compaction that STARTS
  // after our sequence load may capture a larger smallest-snapshot and drop
  // the newest entry at or below our sequence (its shadower being above
  // it).  Versions installed before the sequence load can never do that,
  // so an unchanged stamp proves a NotFound genuine; a moved stamp forces
  // one more pass, at a fresh sequence, over the keys that found nothing.
  // Found values and observed tombstones are always genuine and never
  // re-probed.  Registered snapshots are honoured by SmallestSnapshot() and
  // never need the loop.
  //
  // Per-call scratch lives in a stack arena, so a Get (or a small batch)
  // allocates nothing here; larger batches spill to the heap.
  alignas(std::max_align_t) std::byte arena[1024];
  std::pmr::monotonic_buffer_resource scratch(arena, sizeof(arena));
  // One key's request.  LookupKey is neither movable nor
  // default-constructible, hence the optional; each pass re-emplaces it at
  // that pass's sequence.
  struct KeyProbe {
    std::optional<LookupKey> lkey;
    MultiGetRequest req;
  };
  std::pmr::vector<KeyProbe> probes(count, &scratch);
  std::pmr::vector<MultiGetRequest*> pending(&scratch);
  pending.reserve(count);
  for (;;) {
    const uint64_t stamp =
        options.snapshot == nullptr ? engine_->version_stamp() : 0;
    const SequenceNumber snapshot =
        options.snapshot != nullptr
            ? static_cast<const SnapshotImpl*>(options.snapshot)->sequence()
            : last_sequence_.load(std::memory_order_acquire);

    pending.clear();
    {
      // Epoch guard, not a refcount: the view (and the memtable references
      // it pins) stays alive while the guard is held.  Dropped before the
      // engine probe so block I/O never delays view reclamation.
      auto view = read_view_.Acquire();
      for (size_t i = 0; i < count; ++i) {
        MultiGetRequest& req = probes[i].req;
        if (req.resolved()) continue;  // settled by an earlier pass
        const LookupKey& lkey = probes[i].lkey.emplace(keys[i], snapshot);
        req.lkey = &lkey;
        req.value = &values[i];
        Status s;
        if (view->mem->Get(lkey, req.value, &s) ||
            (view->imm != nullptr && view->imm->Get(lkey, req.value, &s))) {
          // Memtables hold values and tombstones (s is OK or NotFound).
          req.state = s.ok() ? MultiGetRequest::State::kFound
                             : MultiGetRequest::State::kDeleted;
        } else {
          pending.push_back(&req);
        }
      }
    }

    if (!pending.empty()) {
      // Version-walk contract: requests sorted by internal key.  Every key
      // carries the same snapshot sequence, so user-key order suffices (and
      // keeps duplicate keys adjacent).
      std::sort(pending.begin(), pending.end(),
                [](const MultiGetRequest* a, const MultiGetRequest* b) {
                  return a->lkey->user_key().compare(b->lkey->user_key()) < 0;
                });
      VersionMultiGet(this, *engine_->current_version(), options,
                      pending.data(), pending.size());
    }

    if (options.snapshot != nullptr || engine_->version_stamp() == stamp ||
        AllResolved(pending.data(), pending.size())) {
      break;
    }
  }

  for (size_t i = 0; i < count; ++i) {
    const MultiGetRequest& req = probes[i].req;
    if (!req.status.ok()) {
      statuses[i] = req.status;
    } else if (req.state == MultiGetRequest::State::kFound) {
      statuses[i] = Status::OK();
    } else {
      statuses[i] = Status::NotFound(Slice());  // tombstone or absent
    }
  }
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot) {
  // Same ordering as ReadBatch: sequence before view (see above).
  *latest_snapshot = last_sequence_.load(std::memory_order_acquire);
  std::vector<Iterator*> iters;
  {
    // The guard only needs to outlive iterator construction: each
    // MemTableIterator takes its own reference on the table.
    auto view = read_view_.Acquire();
    iters.push_back(view->mem->NewIterator());
    if (view->imm != nullptr) {
      iters.push_back(view->imm->NewIterator());
    }
  }
  AddVersionIterators(this, engine_->current_version(), options, &iters);
  return NewMergingIterator(&icmp_, iters.data(),
                            static_cast<int>(iters.size()));
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  // Same compaction-GC hazard as ReadBatch: a version installed between
  // the sequence load and AddVersionIterators may already have dropped
  // entries at or below that sequence.  Once assembled under an unchanged
  // stamp the iterator pins its version, so the hazard is construction-only.
  for (;;) {
    const uint64_t stamp =
        options.snapshot == nullptr ? engine_->version_stamp() : 0;
    SequenceNumber latest_snapshot;
    Iterator* internal_iter = NewInternalIterator(options, &latest_snapshot);
    if (options.snapshot != nullptr) {
      return NewDBIterator(
          internal_iter,
          static_cast<const SnapshotImpl*>(options.snapshot)->sequence());
    }
    if (engine_->version_stamp() == stamp) {
      return NewDBIterator(internal_iter, latest_snapshot);
    }
    delete internal_iter;
  }
}

const Snapshot* DBImpl::GetSnapshot() {
  // snapshots_mu_ only: snapshot creation/release never contends with the
  // writer queue.  The sequence is loaded inside the lock so concurrent
  // GetSnapshot calls insert in monotone order (SnapshotList requires it).
  std::lock_guard<std::mutex> l(snapshots_mu_);
  return snapshots_.New(last_sequence_.load(std::memory_order_acquire));
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  std::lock_guard<std::mutex> l(snapshots_mu_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// ---------------------------------------------------------------------------
// Background work

void DBImpl::MaybeScheduleBackgroundWork() {
  if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
    return;
  }
  // Flush lane: at most one high-lane worker, and only when the engine
  // could pick a flush job now.  Flushes serialize on the single imm slot,
  // so one worker is always enough — and the high lane guarantees it never
  // queues behind merges.  A flush the engine cannot pick is blocked by a
  // claim, and the job holding that claim runs a pass when it ends.
  if (imm_ != nullptr && !flush_scheduled_ &&
      engine_->RunnableJobs(TreeEngine::WorkLane::kFlush, 1) > 0) {
    flush_scheduled_ = true;
    if (!pool_->Schedule(ThreadPool::Lane::kHigh, [this] {
          BackgroundCall(TreeEngine::WorkLane::kFlush);
        })) {
      // Pool already shutting down (DB teardown): drop the slot; the
      // destructor drains outstanding work itself.
      flush_scheduled_ = false;
      return;
    }
  }
  // Compaction lane: exactly one worker per job the engine could start
  // right now given what is already running (claims simulated by
  // RunnableJobs) — not one per pool slot, which would wake workers that
  // immediately find every job conflicted and exit.
  int slots = pool_->num_threads() - compactions_scheduled_;
  if (slots <= 0) return;
  int runnable =
      engine_->RunnableJobs(TreeEngine::WorkLane::kCompaction, slots);
  for (int i = 0; i < runnable; i++) {
    compactions_scheduled_++;
    if (!pool_->Schedule(ThreadPool::Lane::kLow, [this] {
          BackgroundCall(TreeEngine::WorkLane::kCompaction);
        })) {
      compactions_scheduled_--;
      break;
    }
  }
}

void DBImpl::BackgroundCall(TreeEngine::WorkLane lane) {
  std::unique_lock<std::mutex> l(mutex_);
  bool did_work = false;
  if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok()) {
    Status s = engine_->BackgroundWork(lane, &did_work);
    if (!s.ok()) bg_error_ = s;
  }
  if (lane == TreeEngine::WorkLane::kFlush) {
    flush_scheduled_ = false;
  } else {
    compactions_scheduled_--;
  }
  if (did_work) {
    IAMDB_SYNC_POINT("DBImpl::BackgroundCall:RanJob");
    // One job per wakeup: the finished job released its claims and
    // may have made more work runnable, so a pass hands that to fresh
    // workers, and the pool consults its high lane before starting them.
    MaybeScheduleBackgroundWork();
  } else {
    // Nothing runnable (another worker took the job since this one was
    // scheduled), or the DB is closing or failed.  Rescheduling here would
    // spin: whatever blocks the work is a running job, and its completion
    // runs the pass.
    IAMDB_SYNC_POINT("DBImpl::BackgroundCall:NoWork");
  }
  bg_cv_.notify_all();
}

void DBImpl::ImmFlushed() {
  // Mutex held by caller (engine).  The engine has already installed the
  // tree version containing the imm's data, so the view published here
  // (without the imm) still lets readers find everything: a reader that
  // sees the new view synchronizes with this thread and therefore also
  // sees the new engine version.
  if (imm_ != nullptr) {
    imm_->Unref();
    imm_ = nullptr;
  }
  PublishReadView();
  IAMDB_SYNC_POINT("DBImpl::ImmFlushed:BeforeWalRemove");
  // WALs older than the current log are covered by flushed data.
  for (uint64_t old : old_log_numbers_) {
    counting_env_->RemoveFile(LogFileName(dbname_, old));
  }
  old_log_numbers_.clear();
  bg_cv_.notify_all();
}

Status DBImpl::LogEdit(VersionEdit* edit) {
  edit->SetNextFileNumber(next_file_number_);
  edit->SetNextNodeId(next_node_id_);
  edit->SetLastSequence(last_sequence_.load(std::memory_order_relaxed));
  IAMDB_SYNC_POINT("DBImpl::LogEdit:BeforeManifestAppend");
  // Always synced: edits gate the deletion of the WALs and input tables
  // that carry the same data, so an unsynced edit could lose acknowledged
  // writes across a crash (sync_wal only governs per-write WAL syncs).
  Status s = manifest_->Append(*edit, true);
  IAMDB_SYNC_POINT("DBImpl::LogEdit:AfterManifestAppend");
  return s;
}

Status DBImpl::WaitForQuiescence() {
  std::unique_lock<std::mutex> l(mutex_);
  while (bg_error_.ok() &&
         (imm_ != nullptr || ScheduledWorkers() > 0 ||
          engine_->RunnableJobs(TreeEngine::WorkLane::kCompaction, 1) > 0)) {
    MaybeScheduleBackgroundWork();
    bg_cv_.wait(l);
  }
  return bg_error_;
}

Status DBImpl::FlushAll() {
  {
    std::unique_lock<std::mutex> l(mutex_);
    if (mem_->num_entries() > 0) {
      while (imm_ != nullptr && bg_error_.ok()) {
        MaybeScheduleBackgroundWork();
        bg_cv_.wait(l);
      }
      if (!bg_error_.ok()) return bg_error_;
      Status s = SwitchMemTable();
      if (!s.ok()) return s;
      MaybeScheduleBackgroundWork();
    }
  }
  return WaitForQuiescence();
}

// ---------------------------------------------------------------------------
// Stats

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  char buf[160];
  if (property == Slice("iamdb.stats")) {
    *value = amp_stats_.ToString();
    DbStats stats = GetStats();
    std::snprintf(buf, sizeof(buf),
                  "space=%.1fMB cache=%.1f/%.1fMB hit-rate=%.1f%% "
                  "stalls=%.1fs\n",
                  stats.space_used_bytes / 1048576.0,
                  stats.cache_usage / 1048576.0,
                  block_cache_->capacity() / 1048576.0,
                  100.0 * stats.cache_hits /
                      std::max<uint64_t>(1, stats.cache_hits +
                                                stats.cache_misses),
                  stats.stall_micros / 1e6);
    value->append(buf);
    if (stats.compress_input_bytes > 0) {
      std::snprintf(buf, sizeof(buf),
                    "compression=%s ratio=%.2fx stored=%.1fMB "
                    "(columnar=%llu lz=%llu raw=%llu blocks)\n",
                    CompressionTypeName(options_.table.compression),
                    static_cast<double>(stats.compress_input_bytes) /
                        std::max<uint64_t>(1, stats.compress_stored_bytes),
                    stats.compress_stored_bytes / 1048576.0,
                    static_cast<unsigned long long>(
                        stats.compress_columnar_blocks),
                    static_cast<unsigned long long>(stats.compress_lz_blocks),
                    static_cast<unsigned long long>(
                        stats.compress_raw_fallback_blocks));
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.levels")) {
    TreeVersionPtr version = engine_->current_version();
    for (int level = 0; level < version->num_levels(); level++) {
      uint64_t sequences = 0, bytes = 0;
      for (const auto& node : version->level(level)) {
        sequences += node->seq_count;
        bytes += node->data_bytes;
      }
      std::snprintf(buf, sizeof(buf), "L%d: %zu nodes %.1fMB %llu sequences\n",
                    level + (options_.engine == EngineType::kAmt ? 1 : 0),
                    version->level(level).size(), bytes / 1048576.0,
                    static_cast<unsigned long long>(sequences));
      value->append(buf);
    }
    DbStats stats = GetStats();
    if (stats.mixed_level > 0) {
      std::snprintf(buf, sizeof(buf), "mixed level m=%d k=%d\n",
                    stats.mixed_level, stats.mixed_level_k);
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.tree-digest")) {
    // Deterministic content digest of the published tree, independent of
    // node ids, file numbers and file layout: per node, its shape and a
    // CRC of its merged record stream; per level, a CRC of the level's
    // concatenated record stream (in node order).  subcompaction_test
    // compares digests across different max_subcompactions settings —
    // node-level lines for the AMT engine (sharding preserves node
    // boundaries), "stream" lines for the leveled engine (sharding only
    // moves file cuts).
    TreeVersionPtr version = engine_->current_version();
    for (int level = 0; level < version->num_levels(); level++) {
      uint32_t level_crc = 0;
      uint64_t level_entries = 0;
      for (const auto& node : version->level(level)) {
        uint32_t node_crc = 0;
        uint64_t node_entries = 0;
        if (!node->empty()) {
          InputNode input;
          if (!ReadInputNode(this, *node, &input).ok()) return false;
          std::unique_ptr<Iterator> merged(input.NewIterator());
          for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
            node_crc = crc32c::Extend(node_crc, merged->key().data(),
                                      merged->key().size());
            node_crc = crc32c::Extend(node_crc, merged->value().data(),
                                      merged->value().size());
            level_crc = crc32c::Extend(level_crc, merged->key().data(),
                                       merged->key().size());
            level_crc = crc32c::Extend(level_crc, merged->value().data(),
                                       merged->value().size());
            node_entries++;
          }
          if (!merged->status().ok()) return false;
        }
        std::snprintf(buf, sizeof(buf),
                      "L%d node lo=%s hi=%s entries=%llu seqs=%u crc=%08x\n",
                      level, node->range_lo.c_str(), node->range_hi.c_str(),
                      static_cast<unsigned long long>(node_entries),
                      node->seq_count, node_crc);
        value->append(buf);
        level_entries += node_entries;
      }
      std::snprintf(buf, sizeof(buf), "L%d stream entries=%llu crc=%08x\n",
                    level, static_cast<unsigned long long>(level_entries),
                    level_crc);
      value->append(buf);
    }
    return true;
  }
  if (property == Slice("iamdb.approximate-memory-usage")) {
    uint64_t total = block_cache_->usage();
    if (compressed_block_cache_ != nullptr) {
      total += compressed_block_cache_->usage();
    }
    {
      auto view = read_view_.Acquire();
      total += view->mem->ApproximateMemoryUsage();
      if (view->imm != nullptr) total += view->imm->ApproximateMemoryUsage();
    }
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(total));
    *value = buf;
    return true;
  }
  return false;
}

DbStats DBImpl::GetStats() {
  DbStats stats;
  stats.total_write_amp = amp_stats_.TotalWriteAmp();
  stats.user_bytes = amp_stats_.user_bytes();
  int max_level = amp_stats_.MaxRecordedLevel();
  for (int i = 0; i <= max_level; i++) {
    stats.level_write_amp.push_back(amp_stats_.LevelWriteAmp(i));
  }

  TreeVersionPtr version = engine_->current_version();
  uint64_t space = 0;
  for (int level = 0; level < version->num_levels(); level++) {
    stats.level_bytes.push_back(version->LevelBytes(level));
    stats.level_node_counts.push_back(
        static_cast<int>(version->level(level).size()));
    for (const auto& node : version->level(level)) {
      // Physical footprint: the whole valid file including dead zones.
      space += node->meta_end;
    }
  }
  stats.space_used_bytes = space;
  stats.cache_usage = block_cache_->usage();
  stats.cache_hits = block_cache_->hits();
  stats.cache_misses = block_cache_->misses();
  stats.compress_input_bytes =
      compression_stats_.input_bytes.load(std::memory_order_relaxed);
  stats.compress_stored_bytes =
      compression_stats_.stored_bytes.load(std::memory_order_relaxed);
  stats.compress_columnar_blocks =
      compression_stats_.columnar_blocks.load(std::memory_order_relaxed);
  stats.compress_lz_blocks =
      compression_stats_.lz_blocks.load(std::memory_order_relaxed);
  stats.compress_raw_fallback_blocks =
      compression_stats_.raw_fallback_blocks.load(std::memory_order_relaxed);
  stats.decompressed_blocks =
      compression_stats_.decompressed_blocks.load(std::memory_order_relaxed);
  stats.decompress_micros =
      compression_stats_.decompress_micros.load(std::memory_order_relaxed);
  if (compressed_block_cache_ != nullptr) {
    stats.compressed_cache_usage = compressed_block_cache_->usage();
    stats.compressed_cache_hits = compressed_block_cache_->hits();
    stats.compressed_cache_misses = compressed_block_cache_->misses();
  }
  stats.stall_micros = stall_micros_.load(std::memory_order_relaxed);
  stats.io = io_stats_.Snapshot();
  stats.flush_queue_depth = pool_->QueueDepth(ThreadPool::Lane::kHigh);
  stats.compact_queue_depth = pool_->QueueDepth(ThreadPool::Lane::kLow);
  stats.subcompactions_run = subcompactions_.load(std::memory_order_relaxed);
  stats.multiget_batches = multiget_batches_.load(std::memory_order_relaxed);
  stats.multiget_keys = multiget_keys_.load(std::memory_order_relaxed);
  stats.multiget_coalesced_reads = io_stats_.coalesced_reads();
  stats.multiget_coalesced_blocks = io_stats_.coalesced_blocks();
  engine_->FillStats(&stats);
  return stats;
}

}  // namespace iamdb
