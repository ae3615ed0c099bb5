// TreeEngine: the on-disk organisation behind one DBImpl.  The write path,
// WAL, memtables, snapshots, group commit and the read path are shared:
// DBImpl reads the engine's published TreeVersion through the
// engine-agnostic lookup and iterator code in core/level_iters.h.  Engines
// own only tree structure and compaction policy:
//   LeveledEngine — classic leveled LSM (the paper's LevelDB/RocksDB
//                   baseline, with overflow/stall behaviour knobs), and
//   AmtEngine     — the LSA/IAM append-merge tree (the contribution).
//
// Background job control is written once, here: the published version,
// one claim set, the runnable count, dispatch and install.  An engine
// supplies its policy — PickJob says which job to run next and which keys
// it claims (leveled: its input and output level numbers; AMT: the node
// and its targets' node ids), RunJob moves the data, and every job ends in
// Install, which logs the edit, publishes the new version and retires the
// replaced files (docs/CONCURRENCY.md, "Background job skeleton").
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/dbformat.h"
#include "core/manifest.h"
#include "core/options.h"
#include "core/version.h"
#include "util/published_ptr.h"
#include "util/status.h"

namespace iamdb {

struct DbStats;
class DBImpl;

class TreeEngine {
 public:
  enum class WritePressure { kNone, kSlowdown, kStop };

  // Which scheduler lane a background worker serves.  kFlush work is what
  // the write path hard-stalls on (imm flushes, plus any structural job
  // that must run first to unblock one); kCompaction is everything else.
  // DBImpl keeps at most one kFlush worker outstanding, on the pool's high
  // lane, so a flush never queues behind merges (docs/CONCURRENCY.md,
  // "Two-lane background scheduling").
  enum class WorkLane { kFlush, kCompaction };

  virtual ~TreeEngine() = default;

  // Build the in-memory tree from recovered manifest state (open time; no
  // locking concerns): every recovered node at its level, in the order
  // Install keeps, then Retune().
  virtual Status Recover(const RecoveredState& state);

  // How many jobs on `lane` could start RIGHT NOW without conflicting with
  // each other or with running jobs, capped at `max`: pick, claim in a
  // copy of the claim set, repeat.  A pick that claims nothing ends the
  // count, since it would be picked again.  kFlush answers 0 or 1: whether
  // BackgroundWork(kFlush) would pick a job now.  DBImpl schedules exactly
  // this many workers per lane, so a worker is only woken for work it can
  // start.  DB mutex held.
  int RunnableJobs(WorkLane lane, int max) const;

  // Perform one unit of background work on the given lane: pick a job,
  // run it under the lane's I/O priority (kFlush: high) holding its
  // claims, and release them.  Called with the DB mutex HELD; jobs unlock
  // around I/O.  *did_work=false when there was nothing runnable on that
  // lane (the job was taken by another worker since scheduling).
  Status BackgroundWork(WorkLane lane, bool* did_work);

  // Write-throttling decision (DB mutex held).
  virtual WritePressure GetWritePressure() const = 0;

  // Bytes of merge work the published version owes before the tree is back
  // within its shape thresholds (over-limit level bytes, full nodes),
  // reported as DbStats.pending_debt_bytes.
  // Lock-free: reads the published version, so callers may hold the DB
  // mutex or nothing at all.
  virtual uint64_t CompactionDebtBytes() const = 0;

  // Engine-specific statistics (no DB mutex; reads the published version).
  virtual void FillStats(DbStats* stats) const = 0;

  // Re-derive cached policy decisions from the published version (DB
  // mutex held).  Runs after every install and after recovery: the AMT
  // engine re-runs its (m,k) tuner, whose changed mixed level takes effect
  // at the next flush/merge boundary.  Default: nothing is cached.
  virtual void Retune() {}

  // Current published tree version (lock-free).
  TreeVersionPtr current_version() const { return current_.Snapshot(); }

  // Monotone counter bumped BEFORE each version publication (lock-free).
  // The read path's optimistic validation handle: a reader samples it
  // before loading its snapshot sequence and re-checks after an engine
  // probe comes back empty.  An unchanged stamp proves every version the
  // probe could have seen was installed before the sequence load, whose
  // compactions therefore only dropped entries shadowed at or below that
  // sequence — so the NotFound is genuine (docs/CONCURRENCY.md, "Reads vs
  // compaction garbage collection").
  uint64_t version_stamp() const { return current_.stamp(); }

  // Validates structural invariants of the published version (range
  // disjointness, node-count thresholds, node size budgets).  Counts are
  // only guaranteed at quiescence; `quiescent` enables those checks.
  virtual Status CheckInvariants(bool quiescent) const = 0;

 protected:
  // One background job as an engine's picker describes it.  `kind`,
  // `level`, `node` and `targets` are the engine's own; the skeleton reads
  // only `claims` and `flushes_imm`.
  struct Job {
    int kind = 0;
    int level = -1;
    NodePtr node;
    std::vector<NodePtr> targets;
    // Keys the job holds while it runs; no two running jobs share one.
    std::vector<uint64_t> claims;
    bool flushes_imm = false;  // at most one such job runs at a time
  };

  // The structural change one job installs.  Install derives the manifest
  // edit from it, so the lists' order is the edit's order.
  struct Delta {
    std::vector<std::pair<int, uint64_t>> removed;  // (level, node_id)
    std::vector<std::pair<int, NodePtr>> added;     // (level, node)
    std::vector<std::shared_ptr<FileLifetime>> obsolete;
    int num_levels = 0;        // the tree grows to this many levels if fewer
    bool flushes_imm = false;  // the edit covers the imm and its WALs

    // Removes `node` from `level` and retires its file.
    void Retire(int level, const NodePtr& node) {
      removed.emplace_back(level, node->node_id);
      if (node->lifetime) obsolete.push_back(node->lifetime);
    }
  };

  // The tree starts with `num_levels` empty levels, the first
  // `overlapping_levels` of which hold nodes ordered by age.
  TreeEngine(DBImpl* db, int num_levels, int overlapping_levels);

  // The engine's next job on `lane` that claims none of `claimed`; false
  // when there is none.  The flush lane is only asked while an imm waits
  // and no imm flush runs.  DB mutex held.
  virtual bool PickJob(WorkLane lane, const std::set<uint64_t>& claimed,
                       Job* job) const = 0;

  // Runs a picked job (mutex held on entry and exit, unlocked around I/O);
  // it ends in Install unless it fails.  `lane` selects the fan-out lane
  // for subcompaction shards.
  virtual Status RunJob(const Job& job, WorkLane lane) = 0;

  // Durably logs `delta`, publishes the version it makes, marks the
  // replaced files obsolete, releases the imm if the job flushed it, then
  // calls Retune().  Mutex held.
  Status Install(const Delta& delta);

  static bool AnyClaimed(const Job& job, const std::set<uint64_t>& claimed);

  DBImpl* const db_;

 private:
  bool Pick(WorkLane lane, const std::set<uint64_t>& claimed, Job* job) const;
  // Sorts the levels marked in `resort`, then publishes `levels`.
  void Publish(std::vector<std::vector<NodePtr>> levels,
               const std::vector<bool>& resort);

  const int overlapping_levels_;
  // Stores happen at open time or under the DB mutex (Install) — the
  // serialization PublishedPtr requires.  Reads take an epoch guard.
  PublishedPtr<const TreeVersion> current_;
  // Guarded by the DB mutex.
  std::set<uint64_t> claimed_;  // union of running jobs' claims
  bool imm_flush_running_ = false;
};

}  // namespace iamdb
