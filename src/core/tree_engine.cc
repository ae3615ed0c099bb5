#include "core/tree_engine.h"

#include <algorithm>
#include <cassert>

#include "core/db_impl.h"

namespace iamdb {

TreeEngine::TreeEngine(DBImpl* db, int num_levels, int overlapping_levels)
    : db_(db),
      overlapping_levels_(overlapping_levels),
      current_(std::make_shared<const TreeVersion>(
          std::vector<std::vector<NodePtr>>(num_levels),
          overlapping_levels)) {}

Status TreeEngine::Recover(const RecoveredState& state) {
  std::vector<std::vector<NodePtr>> levels = current_version()->levels();
  levels.resize(std::max(levels.size(), state.nodes.size()));
  for (size_t level = 0; level < state.nodes.size(); level++) {
    for (const NodeEdit& e : state.nodes[level]) {
      levels[level].push_back(NodeFromEdit(e, db_->env(), db_->dbname()));
    }
  }
  std::vector<bool> resort(levels.size(), true);
  Publish(std::move(levels), resort);
  Retune();
  return Status::OK();
}

bool TreeEngine::AnyClaimed(const Job& job,
                            const std::set<uint64_t>& claimed) {
  for (uint64_t key : job.claims) {
    if (claimed.count(key)) return true;
  }
  return false;
}

bool TreeEngine::Pick(WorkLane lane, const std::set<uint64_t>& claimed,
                      Job* job) const {
  // One imm slot, so one imm flush at a time: the flush lane has work only
  // while an imm waits and no flush of it is running.
  if (lane == WorkLane::kFlush &&
      (db_->imm() == nullptr || imm_flush_running_)) {
    return false;
  }
  return PickJob(lane, claimed, job);
}

int TreeEngine::RunnableJobs(WorkLane lane, int max) const {
  std::set<uint64_t> claimed = claimed_;
  int count = 0;
  while (count < max) {
    Job job;
    if (!Pick(lane, claimed, &job)) break;
    count++;
    // A job that claims nothing (an AMT grow, a leveled imm flush) would
    // be picked again: stop simulating past it.
    if (job.claims.empty()) break;
    claimed.insert(job.claims.begin(), job.claims.end());
  }
  return count;
}

Status TreeEngine::BackgroundWork(WorkLane lane, bool* did_work) {
  *did_work = false;
  Job job;
  if (!Pick(lane, claimed_, &job)) return Status::OK();
  *did_work = true;
  for (uint64_t key : job.claims) {
    const bool fresh = claimed_.insert(key).second;
    assert(fresh && "a job claimed a key a running job holds");
    (void)fresh;
  }
  if (job.flushes_imm) imm_flush_running_ = true;
  Status s = RunJob(job, lane);
  if (job.flushes_imm) imm_flush_running_ = false;
  for (uint64_t key : job.claims) claimed_.erase(key);
  return s;
}

Status TreeEngine::Install(const Delta& delta) {
  TreeVersionPtr base = current_version();
  VersionEdit edit;
  for (const auto& [level, node_id] : delta.removed) {
    edit.RemoveNode(level, node_id);
  }
  for (const auto& [level, node] : delta.added) {
    edit.AddNode(ToEdit(*node, level));
  }
  // The log number cannot move while an imm waits: memtables only rotate
  // into an empty imm slot.
  if (delta.flushes_imm) edit.SetLogNumber(db_->CurrentLogNumber());
  if (delta.num_levels > base->num_levels()) {
    edit.SetNumLevels(delta.num_levels);
  }
  Status s = db_->LogEdit(&edit);
  if (!s.ok()) return s;

  std::vector<std::vector<NodePtr>> levels = base->levels();
  levels.resize(std::max<size_t>(levels.size(), delta.num_levels));
  for (const auto& [level, node_id] : delta.removed) {
    auto& nodes = levels[level];
    const size_t before = nodes.size();
    nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                               [id = node_id](const NodePtr& node) {
                                 return node->node_id == id;
                               }),
                nodes.end());
    // Two jobs replacing one node would mean their claims overlapped.
    assert(nodes.size() + 1 == before && "removed node not in the version");
    (void)before;
  }
  std::vector<bool> resort(levels.size(), false);
  for (const auto& [level, node] : delta.added) {
    levels[level].push_back(node);
    resort[level] = true;
  }
  Publish(std::move(levels), resort);

  // Physical files die when the last version/iterator referencing them
  // lets go.
  for (const auto& lifetime : delta.obsolete) lifetime->MarkObsolete();
  if (delta.flushes_imm) db_->ImmFlushed();
  Retune();
  return Status::OK();
}

void TreeEngine::Publish(std::vector<std::vector<NodePtr>> levels,
                         const std::vector<bool>& resort) {
  // Overlapping levels are ordered by age (node_id), every other level by
  // key range.
  for (size_t level = 0; level < levels.size(); level++) {
    if (!resort[level]) continue;
    const bool by_age = static_cast<int>(level) < overlapping_levels_;
    std::sort(levels[level].begin(), levels[level].end(),
              [by_age](const NodePtr& a, const NodePtr& b) {
                return by_age ? a->node_id < b->node_id
                              : a->range_lo < b->range_lo;
              });
  }
  current_.Store(std::make_shared<const TreeVersion>(std::move(levels),
                                                     overlapping_levels_));
}

}  // namespace iamdb
