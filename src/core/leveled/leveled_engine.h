// LeveledEngine: classic leveled LSM compaction — the paper's baseline.
//
// L0 holds whole-memtable files with overlapping ranges; L1..L6 hold
// disjoint single-sequence nodes.  Compaction picks the level with the
// highest fullness score and merges one file (all files for L0) with the
// overlapping files one level down.
//
// Two behaviour profiles, per the paper's evaluation:
//  * LevelDB-flavour (strict_level_limits=false): stalls only on L0 file
//    count, so deeper levels overflow under write-heavy load (Sec 6.2's
//    "serious data overflows" and long tuning phases).
//  * RocksDB-flavour (strict_level_limits=true): adds pending-compaction-
//    debt slowdown/stop thresholds, preventing overflow at the price of
//    write stalls; combine with background_threads > 1 for "R-4t".
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/tree_engine.h"

namespace iamdb {

class CompactionOutput;
struct InputNode;
class DBImpl;

class LeveledEngine final : public TreeEngine {
 public:
  static constexpr int kNumLevels = 7;
  // L0 files overlap; L1+ are disjoint.
  static constexpr int kOverlappingLevels = 1;

  explicit LeveledEngine(DBImpl* db);

  Status Recover(const RecoveredState& state) override;
  WritePressure GetWritePressure() const override;
  uint64_t CompactionDebtBytes() const override;
  void FillStats(DbStats* stats) const override;
  Status CheckInvariants(bool quiescent) const override;

 private:
  // Flush lane: the imm flush, claiming nothing.  Compaction lane: the
  // level owing the most debt, claiming its input and output levels.
  bool PickJob(WorkLane lane, const std::set<uint64_t>& claimed,
               Job* job) const override;
  Status RunJob(const Job& job, WorkLane lane) override;

  uint64_t MaxBytesForLevel(int level) const;
  // Debt a compaction of `level` would retire: L0 excess files (in
  // target_file_size units), L1+ bytes over the level limit.  0 when the
  // level is within shape.
  uint64_t LevelDebtBytes(const TreeVersion& version, int level) const;
  // Compactable level whose input+output levels are not in `claimed`; -1
  // if none qualifies.  Picks the level owing the most debt bytes.
  int PickCompactionLevel(const std::set<uint64_t>& claimed) const;
  // L1+ debt: the strict profile's stall signal.
  uint64_t PendingCompactionDebt(const TreeVersion& version) const;

  // I/O steps; called with the DB mutex held, unlock around file writes.
  Status FlushImm();
  Status CompactLevel(int level);

  // One key-range shard of a partitioned compaction: merges all of
  // `inputs0` with `inputs1_group` over the user-key span
  // [*start, *stop) — null bounds mean open-ended — into `out` (the caller
  // installs its outputs).  Runs on pool helpers.  Mutex NOT held.
  Status CompactSubrange(const std::vector<InputNode>& inputs0,
                         const std::vector<NodePtr>& inputs1_group,
                         const std::string* start, const std::string* stop,
                         SequenceNumber smallest_snapshot, bool bottommost,
                         CompactionOutput* out);

  std::vector<NodePtr> OverlappingInputs(const TreeVersion& version, int level,
                                         const Slice& lo_user,
                                         const Slice& hi_user) const;
};

}  // namespace iamdb
