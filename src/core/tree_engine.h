// TreeEngine: the on-disk organisation behind one DBImpl.  The write path,
// WAL, memtables, snapshots, group commit and the read path are shared:
// DBImpl reads the engine's published TreeVersion through the
// engine-agnostic lookup and iterator code in core/level_iters.h.  Engines
// own only tree structure and compaction policy:
//   LeveledEngine — classic leveled LSM (the paper's LevelDB/RocksDB
//                   baseline, with overflow/stall behaviour knobs), and
//   AmtEngine     — the LSA/IAM append-merge tree (the contribution).
#pragma once

#include "core/dbformat.h"
#include "core/manifest.h"
#include "core/options.h"
#include "core/version.h"
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
  // locking concerns).
  virtual Status Recover(const RecoveredState& state) = 0;

  // How many jobs on `lane` could start RIGHT NOW without conflicting with
  // each other or with running jobs (busy-marking simulated), capped at
  // `max`.  kFlush answers 0 or 1: whether BackgroundWork(kFlush) would
  // pick a job now.  DBImpl schedules exactly this many workers per lane,
  // so a worker is only woken for work it can start.  DB mutex held.
  virtual int RunnableJobs(WorkLane lane, int max) const = 0;

  // Perform one unit of background work on the given lane: kFlush runs an
  // imm flush (or a prerequisite that unblocks one), kCompaction runs one
  // compaction step.  Called with the DB mutex HELD; the implementation
  // unlocks around I/O.  *did_work=false when there was nothing runnable
  // on that lane (the job was taken by another worker since scheduling).
  virtual Status BackgroundWork(WorkLane lane, bool* did_work) = 0;

  // Write-throttling decision (DB mutex held).
  virtual WritePressure GetWritePressure() const = 0;

  // Bytes of merge work the published version owes before the tree is back
  // within its shape thresholds (over-limit level bytes, full nodes).  The
  // adaptive pacer's feedback signal, and DbStats.pending_debt_bytes.
  // Lock-free: reads the published version, so callers may hold the DB
  // mutex or nothing at all.
  virtual uint64_t CompactionDebtBytes() const = 0;

  // Engine-specific statistics (no DB mutex; reads the published version).
  virtual void FillStats(DbStats* stats) const = 0;

  // Called after the memory arbiter re-divides the budget (DB mutex
  // held): re-derive any cached decisions that depend on memory
  // capacities.  The AMT engine re-runs the (m,k) tuner against the new
  // cache capacity; the changed mixed level takes effect at the next
  // flush/merge boundary.  Default: nothing is capacity-dependent.
  virtual void OnMemoryRetune() {}

  // Current published tree version (lock-free).
  virtual TreeVersionPtr current_version() const = 0;

  // Monotone counter bumped BEFORE each version publication (lock-free).
  // The read path's optimistic validation handle: a reader samples it
  // before loading its snapshot sequence and re-checks after an engine
  // probe comes back empty.  An unchanged stamp proves every version the
  // probe could have seen was installed before the sequence load, whose
  // compactions therefore only dropped entries shadowed at or below that
  // sequence — so the NotFound is genuine (docs/CONCURRENCY.md, "Reads vs
  // compaction garbage collection").
  virtual uint64_t version_stamp() const = 0;

  // Validates structural invariants of the published version (range
  // disjointness, node-count thresholds, node size budgets).  Counts are
  // only guaranteed at quiescence; `quiescent` enables those checks.
  virtual Status CheckInvariants(bool quiescent) const = 0;
};

}  // namespace iamdb
