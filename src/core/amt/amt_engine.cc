#include "core/amt/amt_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "core/compaction_output.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "table/merging_iterator.h"
#include "util/sync_point.h"

namespace iamdb {

// The records one flush target receives under the left-biased gap rule: a
// forward-only view of a shard's CompactionStream that ends before the
// next target's range_lo (`bound`; nullptr for the last target).  It
// copies no value — key() and value() are the stream's slices, valid until
// Next() — and remembers the first and last user keys it yielded, which
// widen the target's range.  SeekToFirst is a no-op so that a merge can
// hand the view to a MergingIterator as it stands; no other repositioning
// is supported.
class AmtEngine::PartitionIterator final : public Iterator {
 public:
  PartitionIterator(CompactionStream* stream, const std::string* bound)
      : stream_(stream), bound_(bound) {
    valid_ = InRange();
    if (valid_) first_user_key_ = ExtractUserKey(stream_->key()).ToString();
  }

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {}
  void SeekToLast() override { Unsupported(); }
  void Seek(const Slice&) override { Unsupported(); }
  void Prev() override { Unsupported(); }
  void Next() override {
    assert(valid_);
    Slice user_key = ExtractUserKey(stream_->key());
    last_user_key_.assign(user_key.data(), user_key.size());
    stream_->Next();
    valid_ = InRange();
  }
  Slice key() const override { return stream_->key(); }
  Slice value() const override { return stream_->value(); }
  Status status() const override {
    return status_.ok() ? stream_->status() : status_;
  }

  // Once drained: the smallest and largest user keys of the partition.
  const std::string& first_user_key() const { return first_user_key_; }
  const std::string& last_user_key() const { return last_user_key_; }

 private:
  bool InRange() const {
    return stream_->Valid() &&
           (bound_ == nullptr ||
            ExtractUserKey(stream_->key()).compare(Slice(*bound_)) < 0);
  }
  void Unsupported() {
    assert(false);
    valid_ = false;
    status_ = Status::NotSupported("PartitionIterator is forward-only");
  }

  CompactionStream* const stream_;
  const std::string* const bound_;
  bool valid_ = false;
  Status status_;
  std::string first_user_key_;
  std::string last_user_key_;
};

AmtEngine::AmtEngine(DBImpl* db)
    : TreeEngine(db, /*num_levels=*/0, /*overlapping_levels=*/0) {
  RecomputeMixedLevel();
}

Status AmtEngine::Recover(const RecoveredState& state) {
  Status s = TreeEngine::Recover(state);
  // The recovered-state computation is the baseline, not a retune.
  mk_retunes_.store(0, std::memory_order_relaxed);
  return s;
}

int AmtEngine::Fanout() const { return db_->options().amt.fanout; }
uint64_t AmtEngine::NodeCapacity() const {
  return db_->options().node_capacity;
}

uint64_t AmtEngine::LevelNodeLimit(int version_index) const {
  uint64_t limit = 1;
  for (int i = 0; i <= version_index; i++) {
    limit *= static_cast<uint64_t>(Fanout());
  }
  return limit;
}

void AmtEngine::RecomputeMixedLevel() {
  const AmtOptions& amt = db_->options().amt;
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();

  MixedLevelChoice choice;
  if (amt.policy == AmtPolicy::kLsa) {
    choice = MixedLevelChoice{n + 1, amt.k};
  } else if (!amt.auto_tune_mk) {
    int m = amt.fixed_mixed_level;
    choice = MixedLevelChoice{m <= 0 ? n + 1 : m, amt.k};
  } else {
    std::vector<uint64_t> level_bytes;
    level_bytes.reserve(n);
    for (int i = 0; i < n; i++) level_bytes.push_back(version->LevelBytes(i));
    // The tuner's M: an explicit override, else the block-cache capacity
    // (fixed at Open).
    uint64_t budget = amt.memory_budget_bytes != 0
                          ? amt.memory_budget_bytes
                          : db_->block_cache()->capacity();
    // The tuner may plan for half of M: the paper's M/2 (Sec 4.2.1, Eq. 2)
    // leaves the other half for sequences that merges generate.
    constexpr double kTunerBudgetFraction = 0.5;
    budget = static_cast<uint64_t>(budget * kTunerBudgetFraction);
    choice = ChooseMixedLevel(level_bytes, amt.fanout, amt.k, budget);
  }
  MixedLevelChoice old = mixed_.load(std::memory_order_relaxed);
  if (old.m != 0 && (old.m != choice.m || old.k != choice.k)) {
    mk_retunes_.fetch_add(1, std::memory_order_relaxed);
  }
  mixed_.store(choice, std::memory_order_release);
}

bool AmtEngine::IsAppendLevel(int paper_level) const {
  return paper_level < mixed_level().m;
}
bool AmtEngine::IsMixedLevel(int paper_level) const {
  return paper_level == mixed_level().m;
}

std::vector<NodePtr> AmtEngine::Children(const TreeVersion& version, int level,
                                         const NodeMeta& node) const {
  std::vector<NodePtr> result;
  if (level + 1 >= version.num_levels()) return result;
  const auto& next = version.level(level + 1);
  // Binary search the first child whose range can overlap (range-sorted,
  // disjoint): first child with range_hi >= node.range_lo.  range_hi is
  // also sorted because ranges are disjoint.
  size_t lo = 0, hi = next.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (next[mid]->range_hi < node.range_lo) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (size_t i = lo; i < next.size(); i++) {
    if (next[i]->range_lo > node.range_hi) break;
    result.push_back(next[i]);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Picking

TreeEngine::Job AmtEngine::NodeJob(const TreeVersion& version, int level,
                                   const NodePtr& node) const {
  Job job;
  job.level = level;
  job.node = node;
  job.targets = Children(version, level, *node);
  job.claims.push_back(node->node_id);
  for (const auto& t : job.targets) job.claims.push_back(t->node_id);
  return job;
}

AmtEngine::JobKind AmtEngine::FullNodeKind(const Job& job) const {
  const double split_at = db_->options().amt.split_child_factor * Fanout();
  return job.targets.size() >= static_cast<size_t>(split_at) &&
                 job.targets.size() >= 2
             ? kSplit
             : kFlushNode;
}

bool AmtEngine::PickJob(WorkLane lane, const std::set<uint64_t>& claimed,
                        Job* job) const {
  TreeVersionPtr version = current_version();
  return lane == WorkLane::kFlush ? PickFlushJob(*version, claimed, job)
                                  : PickCompactionJob(*version, claimed, job);
}

bool AmtEngine::PickCompactionJob(const TreeVersion& version,
                                  const std::set<uint64_t>& claimed,
                                  Job* job) const {
  const int n = version.num_levels();
  const uint64_t capacity = NodeCapacity();

  // 1. Grow: the leaf level reached its node-count threshold (Sec 4.2.3
  //    pre-processing: n increases, a fresh empty leaf level appears).
  if (n > 0 &&
      version.level(n - 1).size() >= LevelNodeLimit(n - 1)) {
    job->kind = kGrow;
    return true;
  }

  // 2. Combine: deepest internal level with too many nodes.
  for (int level = n - 2; level >= 0; level--) {
    const auto& nodes = version.level(level);
    if (nodes.size() <= LevelNodeLimit(level)) continue;
    // Candidates: nodes with two adjacent siblings and Tcn <= 3t; pick the
    // smallest Tcn (Sec 4.2.3).
    const bool min_tcn = db_->options().amt.combine_min_tcn;
    size_t best = SIZE_MAX;
    size_t best_tcn = SIZE_MAX;
    for (size_t i = 1; i + 1 < nodes.size(); i++) {
      NodeMeta combined;
      combined.range_lo = nodes[i - 1]->range_lo;
      combined.range_hi = nodes[i + 1]->range_hi;
      size_t tcn =
          min_tcn ? Children(version, level, combined).size() : i;
      if (tcn < best_tcn) {
        if (AnyClaimed(NodeJob(version, level, nodes[i]), claimed)) continue;
        best_tcn = tcn;
        best = i;
        if (!min_tcn) break;  // naive: first available candidate
      }
    }
    if (best == SIZE_MAX) continue;  // everything claimed; try other levels
    // Paper: candidates must satisfy Tcn <= 3t and the set is non-empty on
    // average; under extreme skew we still take the global minimum so the
    // node-count invariant is always restored.
    *job = NodeJob(version, level, nodes[best]);
    job->kind = kCombine;
    return true;
  }

  // 3. Full internal nodes; split at >= 2t children.  Picks the fullest
  //    node anywhere in the tree (most debt bytes retired per job).
  Job best;
  uint64_t best_bytes = 0;
  for (int level = n - 2; level >= 0; level--) {
    for (const auto& node : version.level(level)) {
      if (node->data_bytes < capacity || node->data_bytes <= best_bytes) {
        continue;
      }
      Job probe = NodeJob(version, level, node);
      if (AnyClaimed(probe, claimed)) continue;
      // Precondition (Sec 4.2.1): an internal child that is itself full
      // must be flushed first.  The pick compares across levels, so a
      // shallow node could otherwise be chosen over its own full child.
      // Skip such nodes; the child is a candidate itself, so progress is
      // preserved.
      if (level < n - 2) {
        bool full_internal_child = false;
        for (const auto& t : probe.targets) {
          if (t->data_bytes >= capacity) {
            full_internal_child = true;
            break;
          }
        }
        if (full_internal_child) continue;
      }
      probe.kind = FullNodeKind(probe);
      best = probe;
      best_bytes = probe.node->data_bytes;
    }
  }
  if (best.node == nullptr) return false;
  *job = best;
  return true;
}

bool AmtEngine::PickFlushJob(const TreeVersion& version,
                             const std::set<uint64_t>& claimed,
                             Job* job) const {
  const int n = version.num_levels();
  const uint64_t capacity = NodeCapacity();

  // Targets are the L1 nodes whose ranges overlap the memtable's key span —
  // when none do (sequential loads), the memtable becomes a brand-new node
  // written exactly once.
  Job probe;
  probe.kind = kFlushImm;
  probe.flushes_imm = true;
  if (n > 0) {
    std::string imm_lo, imm_hi;
    {
      std::unique_ptr<Iterator> it(db_->imm()->NewIterator());
      it->SeekToFirst();
      if (it->Valid()) imm_lo = ExtractUserKey(it->key()).ToString();
      it->SeekToLast();
      if (it->Valid()) imm_hi = ExtractUserKey(it->key()).ToString();
    }
    for (const auto& node : version.level(0)) {
      if (node->range_hi < imm_lo || node->range_lo > imm_hi) continue;
      if (n > 1 && node->data_bytes >= capacity) {
        // A full internal L1 child blocks the memtable flush
        // (precondition 2, Sec 4.2.1).  Run that child's own flush here on
        // the flush lane — with flush priority — instead of waiting for
        // the compaction queue to reach it, so the stalled writer is
        // unblocked as fast as the prerequisite allows.
        Job pre = NodeJob(version, 0, node);
        if (AnyClaimed(pre, claimed)) return false;  // being handled now
        pre.kind = FullNodeKind(pre);
        *job = pre;
        return true;
      }
      probe.targets.push_back(node);
      probe.claims.push_back(node->node_id);
    }
  }
  if (AnyClaimed(probe, claimed)) return false;
  *job = probe;
  return true;
}

TreeEngine::WritePressure AmtEngine::GetWritePressure() const {
  // IamDB relies on the natural imm backpressure (the paper adds no extra
  // stall control; Sec 6.2 contrasts this with RocksDB's).
  return WritePressure::kNone;
}

Status AmtEngine::RunJob(const Job& job, WorkLane lane) {
  switch (job.kind) {
    case kGrow: {
      // The leaf level is full: a fresh empty leaf level appears.
      Delta grow;
      grow.num_levels = current_version()->num_levels() + 1;
      return Install(grow);
    }
    case kFlushImm:
      return RunFlushImm(job, lane);
    case kFlushNode:
    case kCombine:
      return RunFlushNode(job, /*destroy_parent=*/job.kind == kCombine, lane);
    default:
      return RunSplit(job);
  }
}

// ---------------------------------------------------------------------------
// The flush executor (Sec 4.2.1 / 5.1): shared by memtable flushes, node
// flushes and combines.  Drains `source` (already visibility-filtered,
// internal-key order) into the targets at version index `tlevel`; the
// parent node's own removal is handled by the caller.

Status AmtEngine::FlushOneTarget(const NodePtr& target,
                                 std::unique_ptr<PartitionIterator> records,
                                 int tlevel, bool is_leaf,
                                 WriteReason append_reason,
                                 SequenceNumber smallest_snapshot,
                                 Delta* frag) {
  const Options& options = db_->options();
  const uint64_t capacity = NodeCapacity();
  const int paper_level = tlevel + 1;
  const bool lsa = options.amt.policy == AmtPolicy::kLsa;
  const MixedLevelChoice mixed = mixed_level();
  const int k = mixed.k;

  // Policy (Sec 5.1): merge a full leaf child; IAM merges below m and at
  // m once a child holds k sequences; everything else appends.
  bool do_merge = false;
  if (!target->empty()) {
    if (is_leaf && target->data_bytes >= capacity) {
      do_merge = true;
    } else if (!lsa) {
      if (paper_level > mixed.m) {
        do_merge = true;
      } else if (IsMixedLevel(paper_level) &&
                 target->seq_count >= static_cast<uint32_t>(k)) {
        do_merge = true;
      }
    }
  }

  if (!do_merge) {
    // ---- Append path: one more sequence on the target's file, or the
    // first file of an empty placeholder ----
    uint64_t file_number = target->file_number;
    std::shared_ptr<FileLifetime> lifetime = target->lifetime;
    std::shared_ptr<MSTableReader> reader;
    Status s;
    if (file_number == 0) {
      std::lock_guard<std::mutex> l(db_->mutex());
      file_number = db_->NewFileNumber();
    } else {
      s = target->OpenReader(db_->env(), options.table, db_->icmp(),
                             db_->dbname(), &reader);
      if (!s.ok()) return s;
    }
    const std::string fname = TableFileName(db_->dbname(), file_number);
    // On failure the writer abandons: a new file is removed, the target's
    // own file stays readable at its recorded meta_end.
    MSTableWriter writer(db_->env(), options.table, db_->icmp(), fname,
                         file_number, reader.get());
    s = writer.Open();
    for (; s.ok() && records->Valid(); records->Next()) {
      s = writer.Add(records->key(), records->value());
    }
    if (s.ok()) s = records->status();
    MSTableBuildResult result;
    if (s.ok()) s = writer.Finish(/*sync=*/true, &result);
    if (!s.ok()) return s;
    if (lifetime == nullptr) {
      lifetime = std::make_shared<FileLifetime>(db_->env(), fname);
    }

    NodePtr updated = NodeFromBuild(result, target->node_id, file_number,
                                    std::move(lifetime));
    updated->range_lo = std::min(target->range_lo, records->first_user_key());
    updated->range_hi = std::max(target->range_hi, records->last_user_key());

    db_->amp_stats_mutable()->RecordLevelWrite(paper_level, append_reason,
                                               result.new_data_bytes);
    db_->amp_stats_mutable()->RecordLevelWrite(
        paper_level, WriteReason::kMetadata, result.meta_bytes);

    frag->removed.emplace_back(tlevel, target->node_id);
    frag->added.emplace_back(tlevel, updated);
  } else {
    // ---- Merge path ----
    InputNode input;
    Status s = ReadInputNode(db_, *target, &input);
    if (!s.ok()) return s;

    // The merge owns the partition view from here; `partition` reads its
    // key range once the merge has drained it.
    const PartitionIterator* partition = records.get();
    std::vector<Iterator*> iters;
    iters.push_back(records.release());
    input.reader->AddSequenceIterators(input.image, &iters);
    Iterator* merged = NewMergingIterator(db_->icmp(), iters.data(),
                                          static_cast<int>(iters.size()));
    CompactionStream stream(merged, smallest_snapshot,
                            /*bottommost=*/is_leaf);

    // Leaf merges shatter into fresh nodes of Cts = Ct/5 ("Ct/5 by
    // default", Sec 4.2.1, Fig. 4): small enough that a leaf absorbs
    // several appends before it fills again.  Internal merges produce one
    // single-sequence node (Sec 5.1.1).  Cuts fall on user-key boundaries
    // so node ranges in a level stay user-key-disjoint (point reads pick
    // exactly one node per level).
    constexpr uint64_t kLeafMergeSplitFactor = 5;
    CompactionOutput out(db_, is_leaf ? capacity / kLeafMergeSplitFactor
                                      : CompactionOutput::kNoCut);
    out.AddStream(&stream);
    s = out.Finish();
    if (!s.ok()) return s;

    // Preserve the child's range coverage on the outer outputs.
    const std::vector<NodePtr>& outputs = out.outputs();
    if (!outputs.empty()) {
      outputs.front()->range_lo =
          std::min({outputs.front()->range_lo, target->range_lo,
                    partition->first_user_key()});
      outputs.back()->range_hi =
          std::max({outputs.back()->range_hi, target->range_hi,
                    partition->last_user_key()});
    }

    db_->amp_stats_mutable()->RecordLevelWrite(
        paper_level, WriteReason::kMerge, out.data_bytes());
    db_->amp_stats_mutable()->RecordLevelWrite(
        paper_level, WriteReason::kMetadata, out.meta_bytes());

    frag->Retire(tlevel, target);
    for (const auto& node : outputs) {
      frag->added.emplace_back(tlevel, node);
    }
  }
  return Status::OK();
}

Status AmtEngine::FlushInto(const SourceOpener& open_source,
                            SequenceNumber source_snapshot,
                            uint64_t source_bytes, int tlevel,
                            const std::vector<NodePtr>& targets, bool is_leaf,
                            WriteReason append_reason, WorkLane lane,
                            Delta* delta) {
  SequenceNumber smallest_snapshot;
  {
    std::lock_guard<std::mutex> l(db_->mutex());
    smallest_snapshot = db_->SmallestSnapshot();
  }

  // Each target is an independent subcompaction unit: the partition rule
  // puts every record in exactly one child, so shards touch disjoint key
  // ranges and disjoint files.  Results are collected in per-target
  // fragments and merged in child order below — the final edit is
  // byte-identical to the single-threaded execution regardless of how
  // many shards ran or how they interleaved (subcompaction_test asserts
  // this across engines).
  //
  // Targets are range-sorted; a record goes to the last target whose
  // range_lo is <= its user key, and a record before the first target's
  // range to the first (left-biased gap assignment; see DESIGN.md).  So
  // target i owns [range_lo(i), range_lo(i+1)) of the source, and a group
  // of contiguous targets owns one key range, which it streams from its
  // own iterator: nothing is buffered between the source and the targets.
  std::vector<Delta> fragments(targets.size());
  auto run_group = [&](size_t begin, size_t end) -> Status {
    std::unique_ptr<CompactionStream> stream;
    if (begin == 0) {
      stream = std::make_unique<CompactionStream>(
          open_source(), source_snapshot, /*bottommost=*/false);
    } else {
      stream = std::make_unique<CompactionStream>(
          open_source(), source_snapshot, /*bottommost=*/false,
          Slice(targets[begin]->range_lo));
    }
    for (size_t i = begin; i < end; i++) {
      const std::string* bound =
          i + 1 < targets.size() ? &targets[i + 1]->range_lo : nullptr;
      auto records = std::make_unique<PartitionIterator>(stream.get(), bound);
      // A target whose partition is empty is left untouched.
      if (!records->Valid()) continue;
      Status ts = FlushOneTarget(targets[i], std::move(records), tlevel,
                                 is_leaf, append_reason, smallest_snapshot,
                                 &fragments[i]);
      if (!ts.ok()) return ts;
    }
    return stream->status();
  };

  // A merge target's cost grows with its own bytes, and every target
  // takes a share of the source: an estimate known before reading.
  std::vector<uint64_t> cost(targets.size());
  for (size_t i = 0; i < targets.size(); i++) {
    cost[i] = targets[i]->data_bytes + source_bytes / targets.size();
  }
  Status s = RunSubcompactions(db_, cost, lane, run_group);
  if (!s.ok()) {
    // Shards that succeeded before the failure produced files that will
    // never be installed.  Merge outputs get fresh lifetimes — mark those
    // obsolete; append-path results share the target's own file (possibly
    // with trailing garbage past the recorded meta_end, which readers
    // never consult) and must be left alone.
    for (size_t i = 0; i < targets.size(); i++) {
      for (const auto& [lvl, node] : fragments[i].added) {
        (void)lvl;
        if (node->lifetime && node->lifetime != targets[i]->lifetime) {
          node->lifetime->MarkObsolete();
        }
      }
    }
    return s;
  }

  // Deterministic install order: child order, independent of shard timing.
  for (const Delta& frag : fragments) {
    delta->removed.insert(delta->removed.end(), frag.removed.begin(),
                          frag.removed.end());
    delta->added.insert(delta->added.end(), frag.added.begin(),
                        frag.added.end());
    delta->obsolete.insert(delta->obsolete.end(), frag.obsolete.begin(),
                           frag.obsolete.end());
  }
  return Status::OK();
}

Status AmtEngine::RunFlushImm(const Job& job, WorkLane lane) {
  // Mutex held on entry.
  MemTable* imm = db_->imm();
  assert(imm != nullptr);
  imm->Ref();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  const int n = current_version()->num_levels();

  db_->mutex().unlock();

  Delta delta;
  delta.num_levels = 1;  // an empty tree gains its first level
  delta.flushes_imm = true;
  Status s;
  if (job.targets.empty()) {
    // No L1 nodes overlap (or none exist): the memtable becomes one new L1
    // node, written exactly once — the sequential-load fast path.  If the
    // bottommost stream elides every record (all tombstones) nothing is
    // written; the edit still advances the log number so the WAL can be
    // released.
    CompactionOutput out(db_);
    CompactionStream stream(imm->NewIterator(), smallest_snapshot,
                            /*bottommost=*/n <= 1);
    out.AddStream(&stream);
    s = out.Finish();
    if (s.ok()) {
      for (const NodePtr& node : out.outputs()) {
        delta.added.emplace_back(0, node);
      }
      db_->amp_stats_mutable()->RecordLevelWrite(1, WriteReason::kFlush,
                                                 out.data_bytes());
      db_->amp_stats_mutable()->RecordLevelWrite(1, WriteReason::kMetadata,
                                                 out.meta_bytes());
    }
  } else {
    s = FlushInto([imm] { return imm->NewIterator(); }, smallest_snapshot,
                  imm->ApproximateMemoryUsage(), 0, job.targets,
                  /*is_leaf=*/n == 1, WriteReason::kFlush, lane, &delta);
  }
  imm->Unref();

  db_->mutex().lock();
  if (!s.ok()) return s;
  return Install(delta);
}

Status AmtEngine::RunFlushNode(const Job& job, bool destroy_parent,
                               WorkLane lane) {
  // Mutex held on entry.
  const NodePtr& node = job.node;
  const int level = job.level;
  const int n = current_version()->num_levels();
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  const bool rewrite = db_->options().amt.rewrite_on_flush;

  // An empty placeholder picked by a combine simply disappears: there is
  // no data to flush and dropping its range narrows nothing that the
  // partition rule can't reassign.
  if (node->empty()) {
    Delta drop;
    drop.removed.emplace_back(level, node->node_id);
    return Install(drop);
  }

  // Metadata-only move: no overlapping children (Sec 4.2.1 "Without
  // children, the node is directly moved to the next level").
  if (job.targets.empty() && !rewrite) {
    Delta move;
    move.removed.emplace_back(level, node->node_id);
    move.added.emplace_back(level + 1, node);
    return Install(move);
  }

  db_->mutex().unlock();
  // Arg: {the flushed node's version index, the job's lane}
  // (std::pair<int, WorkLane>*).  The job's claims are held and the DB
  // mutex is not.
  [[maybe_unused]] std::pair<int, WorkLane> sync_arg{level, lane};
  IAMDB_SYNC_POINT_ARG("AmtEngine::RunFlushNode:Unlocked", &sync_arg);

  Status s;
  Delta delta;
  {
    // The node's records: its sequences merged in memory (Sec 4.2.1),
    // from one read of the node that every subcompaction group shares.
    InputNode input;
    s = ReadInputNode(db_, *node, &input);
    if (!s.ok()) {
      db_->mutex().lock();
      return s;
    }
    auto open_node = [&input] { return input.NewIterator(); };

    if (job.targets.empty()) {
      // FLSM emulation: rewrite the records into a fresh node one level
      // down instead of moving metadata (Sec 6.8's comparison).
      CompactionOutput out(db_);
      CompactionStream stream(open_node(), smallest_snapshot,
                              /*bottommost=*/false);
      out.AddStream(&stream);
      s = out.Finish();
      if (s.ok()) {
        for (const NodePtr& rewritten : out.outputs()) {
          rewritten->range_lo = std::min(node->range_lo, rewritten->range_lo);
          rewritten->range_hi = std::max(node->range_hi, rewritten->range_hi);
          delta.added.emplace_back(level + 1, rewritten);
        }
        db_->amp_stats_mutable()->RecordLevelWrite(
            level + 2, WriteReason::kMerge, out.data_bytes());
        db_->amp_stats_mutable()->RecordLevelWrite(
            level + 2, WriteReason::kMetadata, out.meta_bytes());
      }
      destroy_parent = true;  // the rewrite replaces the move
    } else {
      s = FlushInto(open_node, smallest_snapshot, node->data_bytes,
                    level + 1, job.targets,
                    /*is_leaf=*/(level + 1) == n - 1, WriteReason::kAppend,
                    lane, &delta);
    }
  }

  db_->mutex().lock();
  if (!s.ok()) return s;

  // The parent's data moved out.
  delta.Retire(level, node);
  if (!destroy_parent) {
    // Keep the node as an empty range placeholder (flushes preserve the
    // level's node count and range coverage; Sec 4.2.1).
    auto placeholder = std::make_shared<NodeMeta>();
    placeholder->node_id = node->node_id;
    placeholder->range_lo = node->range_lo;
    placeholder->range_hi = node->range_hi;
    delta.added.emplace_back(level, placeholder);
  }
  return Install(delta);
}

Status AmtEngine::RunSplit(const Job& job) {
  // Mutex held on entry.  Split the full node's records at the range_lo of
  // its middle child (Sec 4.2.2).
  const NodePtr& node = job.node;
  const int level = job.level;
  SequenceNumber smallest_snapshot = db_->SmallestSnapshot();
  assert(job.targets.size() >= 2);
  std::string boundary = job.targets[job.targets.size() / 2]->range_lo;

  db_->mutex().unlock();

  InputNode input;
  Status s = ReadInputNode(db_, *node, &input);
  // The left node takes the records below the boundary, the right one the
  // rest; either may be empty, and then is not written.
  CompactionOutput out(db_);
  size_t left_count = 0;
  if (s.ok()) {
    CompactionStream stream(input.NewIterator(), smallest_snapshot,
                            /*bottommost=*/false);
    out.AddStream(&stream, &boundary);
    out.Cut();
    left_count = out.outputs().size();
    out.AddStream(&stream);
    s = out.Finish();
  }

  db_->mutex().lock();
  if (!s.ok()) return s;

  Delta delta;
  for (size_t i = 0; i < out.outputs().size(); i++) {
    const NodePtr& half = out.outputs()[i];
    if (i < left_count) {
      half->range_lo = std::min(half->range_lo, node->range_lo);
    } else {
      half->range_hi = std::max(half->range_hi, node->range_hi);
    }
    delta.added.emplace_back(level, half);
  }
  db_->amp_stats_mutable()->RecordLevelWrite(level + 1, WriteReason::kSplit,
                                             out.data_bytes());
  db_->amp_stats_mutable()->RecordLevelWrite(level + 1,
                                             WriteReason::kMetadata,
                                             out.meta_bytes());
  delta.Retire(level, node);
  return Install(delta);
}

uint64_t AmtEngine::CompactionDebtBytes() const {
  // Outstanding structural work: full internal nodes waiting to flush and
  // node-count excesses waiting to combine.
  TreeVersionPtr version = current_version();
  const uint64_t capacity = NodeCapacity();
  uint64_t debt = 0;
  const int n = version->num_levels();
  for (int level = 0; level < n; level++) {
    const auto& nodes = version->level(level);
    if (level < n - 1) {
      for (const auto& node : nodes) {
        if (node->data_bytes >= capacity) debt += node->data_bytes;
      }
    }
    uint64_t limit = LevelNodeLimit(level);
    if (nodes.size() > limit) {
      debt += (nodes.size() - limit) * (capacity / 2);
    }
  }
  return debt;
}

void AmtEngine::FillStats(DbStats* stats) const {
  MixedLevelChoice mixed = mixed_level();
  stats->mixed_level = mixed.m;
  stats->mixed_level_k = mixed.k;
  stats->mixed_level_retunes = mk_retunes_.load(std::memory_order_relaxed);
  stats->pending_debt_bytes = CompactionDebtBytes();
}

Status AmtEngine::CheckInvariants(bool quiescent) const {
  TreeVersionPtr version = current_version();
  const int n = version->num_levels();
  const uint64_t capacity = NodeCapacity();
  char msg[160];

  for (int level = 0; level < n; level++) {
    const auto& nodes = version->level(level);
    // Ranges sorted and disjoint within a level (Sec 4.1).
    for (size_t i = 0; i < nodes.size(); i++) {
      const NodePtr& node = nodes[i];
      if (node->range_lo > node->range_hi) {
        return Status::Corruption("node range inverted");
      }
      if (i > 0 && nodes[i - 1]->range_hi >= node->range_lo) {
        snprintf(msg, sizeof(msg), "L%d nodes %zu/%zu ranges overlap",
                 level + 1, i - 1, i);
        return Status::Corruption(msg);
      }
      // Data stays inside the covering range.
      if (!node->empty()) {
        if (ExtractUserKey(node->smallest_ikey).compare(node->range_lo) < 0 ||
            ExtractUserKey(node->largest_ikey).compare(node->range_hi) > 0) {
          return Status::Corruption("node data outside its range");
        }
      }
    }
    if (quiescent) {
      // Node-count thresholds: Ni <= t^i internal, < t^n leaf (Sec 4.1).
      if (nodes.size() > LevelNodeLimit(level)) {
        snprintf(msg, sizeof(msg), "L%d has %zu nodes (limit %llu)",
                 level + 1, nodes.size(),
                 static_cast<unsigned long long>(LevelNodeLimit(level)));
        return Status::Corruption(msg);
      }
      // No internal node left full at quiescence.
      if (level < n - 1) {
        for (const auto& node : nodes) {
          if (node->data_bytes >= capacity) {
            snprintf(msg, sizeof(msg), "full node left in internal L%d",
                     level + 1);
            return Status::Corruption(msg);
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace iamdb
