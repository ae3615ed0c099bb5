// AmtEngine: the Log-Structured Append-tree (LSA) and the Integrated
// Append/Merge-tree (IAM) — the paper's contribution.
//
// Structure (Sec 4.1): the memtable is L0; on-disk levels L1..Ln hold
// disjoint-range MSTable nodes, at most t^i nodes in Li (internal), fewer
// than t^n at the leaf.  A node holds up to Ct bytes across one or more
// sorted sequences.
//
// Operations (Sec 4.2):
//  * flush   — a full node's data is merged in memory, partitioned by the
//              key ranges of the overlapping children, and appended to (or
//              merged with) them; the node itself remains as an empty
//              range placeholder.  A node with no children moves down by a
//              metadata-only edit (free sequential loads).
//  * split   — a full node with >= 2t children rewrites itself into two
//              nodes with half the children each (bounds the worst write
//              case).
//  * combine — when Ni > t^i, the node with the smallest Tcn (children
//              covered by it and its two neighbours, <= 3t) flushes all its
//              data down and disappears, restoring Ni = t^i.
//
// Append-vs-merge policy (Sec 5.1):
//  * LSA: append unless the child is full (leaf children merge when full).
//  * IAM: levels above the mixed level m append; the mixed level appends
//    until a child holds k sequences, then merges; levels below m always
//    merge.  (m, k) auto-tunes to the cache budget per Eq. 1-2.
//
// Parallelism: a flush job's per-child work is independent — the partition
// rule assigns each record to exactly one child — so FlushInto shards the
// children across the thread pool (partitioned subcompactions, through
// RunSubcompactions in core/compaction_output.h) and installs every
// shard's output in ONE VersionEdit.  Each shard streams
// its own key range of the read-only source straight into its children;
// no partition is buffered.  Job-level conflicts are prevented by the
// skeleton's claims (core/tree_engine.h): a node job claims the node and
// its targets' node ids; shard-level conflicts cannot exist because shards
// own disjoint children.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/amt/amt_tuner.h"
#include "core/compaction_stream.h"
#include "core/tree_engine.h"
#include "stats/amp_stats.h"

namespace iamdb {

class DBImpl;

class AmtEngine final : public TreeEngine {
 public:
  explicit AmtEngine(DBImpl* db);

  Status Recover(const RecoveredState& state) override;
  WritePressure GetWritePressure() const override;
  uint64_t CompactionDebtBytes() const override;
  void FillStats(DbStats* stats) const override;
  void Retune() override { RecomputeMixedLevel(); }
  Status CheckInvariants(bool quiescent) const override;

  // Current mixed-level decision (recomputed when the version changes).
  MixedLevelChoice mixed_level() const {
    return mixed_.load(std::memory_order_acquire);
  }

 private:
  // A job's `kind`.  Its `level` is the version index of its `node`
  // (paper level - 1), and its `targets` are the overlapping next-level
  // nodes: the node's children, or the imm's L1 nodes for an imm flush.
  enum JobKind { kGrow, kFlushImm, kFlushNode, kSplit, kCombine };

  // Opens a new iterator over a flush job's read-only source: the imm, or
  // the parent node's merged sequences.  Every subcompaction shard calls
  // it once, from its own thread.
  using SourceOpener = std::function<Iterator*()>;

  // One target's records: a forward-only view of a shard's source stream,
  // ending before the next target's range_lo (defined in the .cc).
  class PartitionIterator;

  // Paper-level (1-based) classification.
  bool IsAppendLevel(int paper_level) const;
  bool IsMixedLevel(int paper_level) const;

  int Fanout() const;
  uint64_t NodeCapacity() const;
  uint64_t LevelNodeLimit(int version_index) const;  // t^(index+1)

  // Pickers (mutex held).  Compaction lane: deepest structural violation
  // first (grow, combine, full-node flush/split), skipping jobs that claim
  // a node in `claimed`.  Flush lane: the imm flush, or — when a full
  // internal L1 child blocks it (Sec 4.2.1 precondition) — that child's
  // flush job, run with flush priority so the stalled writer never waits
  // behind the merge queue.
  bool PickJob(WorkLane lane, const std::set<uint64_t>& claimed,
               Job* job) const override;
  bool PickCompactionJob(const TreeVersion& version,
                         const std::set<uint64_t>& claimed, Job* job) const;
  bool PickFlushJob(const TreeVersion& version,
                    const std::set<uint64_t>& claimed, Job* job) const;

  // A job on `node` at version index `level`: its targets are the node's
  // children, and it claims the node and every target.
  Job NodeJob(const TreeVersion& version, int level,
              const NodePtr& node) const;
  // What a full node's job does (Sec 4.2.2): split once it has
  // split_child_factor x t children (and at least two), else flush down.
  JobKind FullNodeKind(const Job& job) const;

  // Children of `node` (at version index `level`) = next-level nodes whose
  // range overlaps the node's range.
  std::vector<NodePtr> Children(const TreeVersion& version, int level,
                                const NodeMeta& node) const;

  // Executors (mutex held on entry/exit, unlocked around I/O).  `lane` is
  // the scheduler lane the job runs on: it selects the fan-out lane for
  // subcompaction shards and the rate-limiter priority of the job's I/O.
  Status RunJob(const Job& job, WorkLane lane) override;
  Status RunFlushImm(const Job& job, WorkLane lane);
  Status RunFlushNode(const Job& job, bool destroy_parent, WorkLane lane);
  Status RunSplit(const Job& job);

  // Drains the source, visibility-filtered at `source_snapshot`, into the
  // range-sorted targets at version index `tlevel`, appending or merging
  // per policy.  Splits the targets into contiguous groups when
  // max_subcompactions allows; each group reads its own key range of the
  // source.  `source_bytes` sizes the groups before anything is read.
  // Mutex NOT held.
  Status FlushInto(const SourceOpener& open_source,
                   SequenceNumber source_snapshot, uint64_t source_bytes,
                   int tlevel, const std::vector<NodePtr>& targets,
                   bool is_leaf, WriteReason append_reason, WorkLane lane,
                   Delta* delta);

  // One target's append-or-merge step (one subcompaction unit).  Runs on
  // pool helpers or the job thread; touches only its own target/records/
  // fragment, allocates file/node numbers under short mutex sections.
  // `records` is non-empty and is drained.
  Status FlushOneTarget(const NodePtr& target,
                        std::unique_ptr<PartitionIterator> records, int tlevel,
                        bool is_leaf, WriteReason append_reason,
                        SequenceNumber smallest_snapshot, Delta* frag);

  void RecomputeMixedLevel();

  // Written under the DB mutex; read lock-free from reads/stats/flushes.
  std::atomic<MixedLevelChoice> mixed_{MixedLevelChoice{}};
  // Times the stored (m,k) changed after open — tree growth moving the
  // tuner's choice.  Recover zeroes it so the initial computation over
  // recovered state does not count.
  std::atomic<uint64_t> mk_retunes_{0};
};

}  // namespace iamdb
