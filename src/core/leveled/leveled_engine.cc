#include "core/leveled/leveled_engine.h"

#include <algorithm>
#include <cassert>

#include "core/compaction_output.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "table/merging_iterator.h"
#include "util/sync_point.h"

namespace iamdb {

LeveledEngine::LeveledEngine(DBImpl* db)
    : TreeEngine(db, kNumLevels, kOverlappingLevels) {}

Status LeveledEngine::Recover(const RecoveredState& state) {
  if (state.nodes.size() > static_cast<size_t>(kNumLevels)) {
    return Status::Corruption("leveled manifest has too many levels");
  }
  return TreeEngine::Recover(state);
}

uint64_t LeveledEngine::MaxBytesForLevel(int level) const {
  const LeveledOptions& opts = db_->options().leveled;
  double bytes = static_cast<double>(opts.max_bytes_level1);
  for (int i = 1; i < level; i++) bytes *= opts.level_multiplier;
  return static_cast<uint64_t>(bytes);
}

uint64_t LeveledEngine::LevelDebtBytes(const TreeVersion& version,
                                       int level) const {
  const LeveledOptions& opts = db_->options().leveled;
  if (level == 0) {
    size_t files = version.level(0).size();
    if (files < static_cast<size_t>(opts.l0_compaction_trigger)) return 0;
    // L0 files overlap, so bytes-over-limit does not apply; price the
    // excess (inclusive of the triggering file) in output-file units.
    return (files - opts.l0_compaction_trigger + 1) * opts.target_file_size;
  }
  uint64_t bytes = version.LevelBytes(level);
  uint64_t limit = MaxBytesForLevel(level);
  return bytes > limit ? bytes - limit : 0;
}

int LeveledEngine::PickCompactionLevel(
    const std::set<uint64_t>& claimed) const {
  TreeVersionPtr version = current_version();
  // Greedy debt scheduling: take the level owing the most bytes, not the
  // first or best-ratio one.  A level is eligible exactly when its debt is
  // positive.  Ties break toward L0 — its buildup is what stalls the write
  // path.
  uint64_t best_debt = 0;
  int best_level = -1;
  for (int level = 0; level < kNumLevels - 1; level++) {
    if (claimed.count(level) || claimed.count(level + 1)) continue;
    uint64_t debt = LevelDebtBytes(*version, level);
    if (debt > best_debt) {
      best_debt = debt;
      best_level = level;
    }
  }
  return best_level;
}

uint64_t LeveledEngine::PendingCompactionDebt(
    const TreeVersion& version) const {
  uint64_t debt = 0;
  for (int level = 1; level < kNumLevels; level++) {
    debt += LevelDebtBytes(version, level);
  }
  return debt;
}

bool LeveledEngine::PickJob(WorkLane lane, const std::set<uint64_t>& claimed,
                            Job* job) const {
  if (lane == WorkLane::kFlush) {
    job->flushes_imm = true;
    return true;
  }
  // Concurrent compactions operate on disjoint level pairs.
  int level = PickCompactionLevel(claimed);
  if (level < 0) return false;
  job->level = level;
  job->claims = {static_cast<uint64_t>(level),
                 static_cast<uint64_t>(level + 1)};
  return true;
}

Status LeveledEngine::RunJob(const Job& job, WorkLane /*lane*/) {
  return job.flushes_imm ? FlushImm() : CompactLevel(job.level);
}

TreeEngine::WritePressure LeveledEngine::GetWritePressure() const {
  const LeveledOptions& opts = db_->options().leveled;
  TreeVersionPtr version = current_version();
  size_t l0_files = version->level(0).size();
  if (l0_files >= static_cast<size_t>(opts.l0_stop_trigger)) {
    return WritePressure::kStop;
  }
  if (opts.strict_level_limits) {
    uint64_t debt = PendingCompactionDebt(*version);
    if (debt >= opts.hard_pending_bytes) return WritePressure::kStop;
    if (debt >= opts.soft_pending_bytes) return WritePressure::kSlowdown;
  }
  if (l0_files >= static_cast<size_t>(opts.l0_slowdown_trigger)) {
    return WritePressure::kSlowdown;
  }
  return WritePressure::kNone;
}

Status LeveledEngine::FlushImm() {
  // Mutex held on entry.
  MemTable* imm = db_->imm();
  assert(imm != nullptr);
  imm->Ref();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();

  db_->mutex().unlock();
  // Build one L0 table from the whole memtable.
  CompactionOutput out(db_);
  {
    CompactionStream stream(imm->NewIterator(), smallest_snapshot,
                            /*bottommost=*/false);
    out.AddStream(&stream);
  }
  Status s = out.Finish();
  imm->Unref();
  db_->mutex().lock();
  if (!s.ok()) return s;

  db_->amp_stats_mutable()->RecordLevelWrite(0, WriteReason::kFlush,
                                             out.data_bytes());
  db_->amp_stats_mutable()->RecordLevelWrite(0, WriteReason::kMetadata,
                                             out.meta_bytes());

  Delta delta;
  for (const NodePtr& node : out.outputs()) delta.added.emplace_back(0, node);
  delta.flushes_imm = true;
  return Install(delta);
}

std::vector<NodePtr> LeveledEngine::OverlappingInputs(
    const TreeVersion& version, int level, const Slice& lo_user,
    const Slice& hi_user) const {
  std::vector<NodePtr> result;
  for (const auto& node : version.level(level)) {
    if (Slice(node->range_hi).compare(lo_user) < 0) continue;
    if (Slice(node->range_lo).compare(hi_user) > 0) continue;
    result.push_back(node);
  }
  return result;
}

Status LeveledEngine::CompactSubrange(
    const std::vector<NodePtr>& inputs0,
    const std::vector<NodePtr>& inputs1_group, const std::string* start,
    const std::string* stop, SequenceNumber smallest_snapshot, bool bottommost,
    CompactionOutput* out) {
  Status s;
  std::vector<Iterator*> input_iters;
  const ReadOptions read_options = CompactionReadOptions();
  for (const auto* inputs : {&inputs0, &inputs1_group}) {
    for (const auto& node : *inputs) {
      std::shared_ptr<MSTableReader> reader;
      s = node->OpenReader(db_->env(), db_->options().table, db_->icmp(),
                           db_->dbname(), &reader);
      if (!s.ok()) break;
      reader->AddSequenceIterators(read_options, &input_iters);
    }
    if (!s.ok()) break;
  }
  if (!s.ok()) {
    for (Iterator* iter : input_iters) delete iter;
    return s;
  }

  Iterator* merged = NewMergingIterator(db_->icmp(), input_iters.data(),
                                        static_cast<int>(input_iters.size()));
  std::unique_ptr<CompactionStream> stream;
  if (start != nullptr) {
    stream = std::make_unique<CompactionStream>(merged, smallest_snapshot,
                                                bottommost, Slice(*start));
  } else {
    stream = std::make_unique<CompactionStream>(merged, smallest_snapshot,
                                                bottommost);
  }
  // The stop key itself belongs to the next shard (its stream seeks to the
  // key's newest version, so no record is emitted twice).
  out->AddStream(stream.get(), stop);
  return out->Finish();
}

Status LeveledEngine::CompactLevel(int level) {
  // Mutex held on entry.
  TreeVersionPtr version = current_version();
  const Options& options = db_->options();

  std::vector<NodePtr> inputs0;
  if (level == 0) {
    // Start from the oldest L0 file and expand by range overlap to a
    // fixpoint (newer overlapping files must join or their versions would
    // be buried below older ones).  Non-overlapping files — sequential
    // loads — stay single-input and become trivial moves.
    inputs0.push_back(version->level(0).front());
    std::string lo = inputs0[0]->range_lo, hi = inputs0[0]->range_hi;
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& node : version->level(0)) {
        bool already = false;
        for (const auto& input : inputs0) {
          if (input->node_id == node->node_id) {
            already = true;
            break;
          }
        }
        if (already) continue;
        if (node->range_hi < lo || node->range_lo > hi) continue;
        inputs0.push_back(node);
        lo = std::min(lo, node->range_lo);
        hi = std::max(hi, node->range_hi);
        grew = true;
      }
    }
  } else {
    const auto& nodes = version->level(level);
    if (nodes.empty()) return Status::OK();
    // The node with the cheapest write cost per debt byte retired — most
    // of the merge's output should be this node's own bytes, not rewritten
    // next-level overlap.
    NodePtr picked;
    double best_ratio = -1.0;
    for (const auto& node : nodes) {
      uint64_t overlap = 0;
      for (const auto& below : OverlappingInputs(
               *version, level + 1, node->range_lo, node->range_hi)) {
        overlap += below->data_bytes;
      }
      double ratio = static_cast<double>(node->data_bytes) /
                     static_cast<double>(node->data_bytes + overlap);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        picked = node;
      }
    }
    inputs0.push_back(picked);
  }
  if (inputs0.empty()) return Status::OK();

  std::string lo = inputs0[0]->range_lo, hi = inputs0[0]->range_hi;
  for (const auto& node : inputs0) {
    lo = std::min(lo, node->range_lo);
    hi = std::max(hi, node->range_hi);
  }
  std::vector<NodePtr> inputs1 =
      OverlappingInputs(*version, level + 1, lo, hi);

  // Trivial move: single input, nothing to merge with.
  if (inputs1.empty() && inputs0.size() == 1) {
    Delta move;
    move.removed.emplace_back(level, inputs0[0]->node_id);
    move.added.emplace_back(level + 1, inputs0[0]);
    return Install(move);
  }

  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  // Bottommost if every deeper level has no overlap with the output range.
  bool bottommost = true;
  for (int deeper = level + 2; deeper < kNumLevels; deeper++) {
    if (!OverlappingInputs(*version, deeper, lo, hi).empty()) {
      bottommost = false;
      break;
    }
  }

  db_->mutex().unlock();
  // Arg: the compacted level (const int*).  The job's claims are held and
  // the DB mutex is not.
  IAMDB_SYNC_POINT_ARG("LeveledEngine::CompactLevel:Unlocked", &level);

  // Partitioned subcompaction: with several next-level inputs the merge
  // splits into contiguous key-range shards along inputs1 node boundaries,
  // balanced by data bytes.  Each shard merges ALL of inputs0 (bounded by
  // the shard's range) with its own slice of inputs1 — inputs1 nodes are
  // user-key-disjoint, so each belongs to exactly one shard and shards
  // write disjoint outputs.  A shard starts at its first inputs1 node's
  // range_lo; inputs0 records below the first boundary go to shard 0.
  std::vector<uint64_t> cost;
  for (const auto& node : inputs1) cost.push_back(node->data_bytes);
  // One output per shard, indexed by the shard's first inputs1 node.
  std::vector<CompactionOutput> shards;
  for (size_t i = 0; i < std::max<size_t>(inputs1.size(), 1); i++) {
    shards.emplace_back(db_, options.leveled.target_file_size);
  }
  Status s = RunSubcompactions(
      db_, cost, WorkLane::kCompaction, [&](size_t begin, size_t end) {
        return CompactSubrange(
            inputs0,
            std::vector<NodePtr>(inputs1.begin() + begin,
                                 inputs1.begin() + end),
            begin == 0 ? nullptr : &inputs1[begin]->range_lo,
            end < inputs1.size() ? &inputs1[end]->range_lo : nullptr,
            smallest_snapshot, bottommost, &shards[begin]);
      });
  // Concatenate in shard order (shards cover increasing disjoint ranges,
  // so this is also range order); collect even on failure so every
  // written file gets obsoleted below.
  std::vector<NodePtr> outputs;
  uint64_t written_bytes = 0, meta_bytes = 0;
  for (const CompactionOutput& shard : shards) {
    outputs.insert(outputs.end(), shard.outputs().begin(),
                   shard.outputs().end());
    written_bytes += shard.data_bytes();
    meta_bytes += shard.meta_bytes();
  }

  db_->mutex().lock();
  if (!s.ok()) {
    for (const auto& node : outputs) {
      if (node->lifetime) node->lifetime->MarkObsolete();
    }
    return s;
  }

  db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kMerge,
                                             written_bytes);
  db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kMetadata,
                                             meta_bytes);

  Delta delta;
  for (const auto& node : inputs0) delta.Retire(level, node);
  for (const auto& node : inputs1) delta.Retire(level + 1, node);
  for (const auto& node : outputs) delta.added.emplace_back(level + 1, node);
  return Install(delta);
}

uint64_t LeveledEngine::CompactionDebtBytes() const {
  // Every level's debt, priced as the picker prices it: a level is owed
  // work exactly when a compaction of it is runnable.
  TreeVersionPtr version = current_version();
  return PendingCompactionDebt(*version) + LevelDebtBytes(*version, 0);
}

void LeveledEngine::FillStats(DbStats* stats) const {
  stats->mixed_level = 0;
  stats->mixed_level_k = 0;
  stats->pending_debt_bytes = CompactionDebtBytes();
}

Status LeveledEngine::CheckInvariants(bool quiescent) const {
  TreeVersionPtr version = current_version();
  for (int level = 1; level < version->num_levels(); level++) {
    const auto& nodes = version->level(level);
    for (size_t i = 1; i < nodes.size(); i++) {
      if (nodes[i - 1]->range_hi >= nodes[i]->range_lo) {
        return Status::Corruption("leveled L1+ ranges overlap");
      }
    }
  }
  if (quiescent) {
    // After settling, L0 must be below the compaction trigger.
    if (version->level(0).size() >=
        static_cast<size_t>(db_->options().leveled.l0_compaction_trigger)) {
      return Status::Corruption("L0 still over trigger at quiescence");
    }
  }
  return Status::OK();
}

}  // namespace iamdb
