#include "core/level_iters.h"

#include <algorithm>

#include "core/db_impl.h"
#include "table/two_level_iterator.h"
#include "util/coding.h"

namespace iamdb {

namespace {

// First node of a range-sorted level whose range_hi >= `user_key`: the only
// node that can cover the key.
std::vector<NodePtr>::const_iterator FirstNodeReaching(
    const std::vector<NodePtr>& nodes, const Slice& user_key) {
  return std::partition_point(
      nodes.begin(), nodes.end(), [&](const NodePtr& n) {
        return Slice(n->range_hi).compare(user_key) < 0;
      });
}

class NodeListIterator final : public Iterator {
 public:
  explicit NodeListIterator(std::shared_ptr<const std::vector<NodePtr>> nodes)
      : nodes_(std::move(nodes)), index_(nodes_->size()) {}

  bool Valid() const override { return index_ < nodes_->size(); }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = nodes_->empty() ? 0 : nodes_->size() - 1;
  }
  void Seek(const Slice& target) override {
    // Ranges can be wider than data, which only makes the scan inspect an
    // extra node.
    auto node = FirstNodeReaching(*nodes_, ExtractUserKey(target));
    index_ = static_cast<size_t>(node - nodes_->begin());
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = nodes_->size();
    } else {
      index_--;
    }
  }
  Slice key() const override {
    const NodePtr& node = (*nodes_)[index_];
    if (!node->largest_ikey.empty()) return Slice(node->largest_ikey);
    // Empty node: synthesize a key from its range so ordering holds.
    synth_key_.clear();
    AppendInternalKey(&synth_key_,
                      ParsedInternalKey(node->range_hi, 0, kTypeValue));
    return Slice(synth_key_);
  }
  Slice value() const override {
    EncodeFixed64(buf_, index_);
    return Slice(buf_, 8);
  }
  Status status() const override { return Status::OK(); }

 private:
  std::shared_ptr<const std::vector<NodePtr>> nodes_;
  size_t index_;
  mutable char buf_[8];
  mutable std::string synth_key_;
};

// The node's table reader, opened on first use.  A cache-only read takes
// it only if already open: opening reads the node's metadata and holds
// the node's reader lock across that I/O.
Status NodeReader(DBImpl* db, const NodeMeta& node, const ReadOptions& options,
                  std::shared_ptr<MSTableReader>* reader) {
  if (!options.cache_only) {
    return node.OpenReader(db->env(), db->options().table, db->icmp(),
                           db->dbname(), reader);
  }
  *reader = node.OpenedReader();
  return *reader != nullptr ? Status::OK()
                            : Status::Incomplete("table reader not open");
}

// Single node -> merged iterator over its sequences (empty node -> empty).
Iterator* NewNodeIterator(DBImpl* db, const NodePtr& node,
                          const ReadOptions& options) {
  if (node->empty()) return NewEmptyIterator();
  std::shared_ptr<MSTableReader> reader;
  Status s = NodeReader(db, *node, options, &reader);
  if (!s.ok()) return NewErrorIterator(s);
  Iterator* iter = reader->NewIterator(options);
  iter->RegisterCleanup([reader]() mutable { reader.reset(); });
  return iter;
}

// Two-level iterator over one range-sorted level.  Pins `version` for its
// lifetime.  Empty nodes yield empty iterators.
Iterator* NewLevelIterator(DBImpl* db, TreeVersionPtr version,
                           std::shared_ptr<const std::vector<NodePtr>> nodes,
                           const ReadOptions& options) {
  Iterator* index_iter = new NodeListIterator(nodes);
  ReadOptions opts = options;
  Iterator* level_iter = NewTwoLevelIterator(
      index_iter, [db, nodes, opts](const Slice& index_value) -> Iterator* {
        uint64_t index = DecodeFixed64(index_value.data());
        return NewNodeIterator(db, (*nodes)[index], opts);
      });
  level_iter->RegisterCleanup([version]() mutable { version.reset(); });
  return level_iter;
}

// Probes `node` with the run of requests its range covers.  Skips empty
// nodes and runs with nothing left to resolve, so no reader is opened
// without need; a reader open error (or a cache-only read's Incomplete)
// becomes each pending key's status.
void ProbeNode(DBImpl* db, const NodePtr& node, const ReadOptions& options,
               MultiGetRequest* const* reqs, size_t count) {
  if (node->empty() || AllResolved(reqs, count)) return;
  std::shared_ptr<MSTableReader> reader;
  Status s = NodeReader(db, *node, options, &reader);
  if (!s.ok()) {
    for (size_t i = 0; i < count; ++i) {
      if (!reqs[i]->resolved()) reqs[i]->status = s;
    }
    return;
  }
  reader->MultiGet(options, reqs, count);
}

// A cache-only batch stops at the first node probe that leaves a key
// Incomplete: its caller goes to the device for the rest anyway, so
// probing further here would be wasted work.  Every key still pending
// (`all`) comes back Incomplete with it.  True if the walk must stop.
bool StopAtFirstMiss(const ReadOptions& options,
                     MultiGetRequest* const* run, size_t run_count,
                     MultiGetRequest* const* all, size_t count) {
  if (!options.cache_only) return false;
  MultiGetRequest* const* miss =
      std::find_if(run, run + run_count, [](const MultiGetRequest* r) {
        return r->status.IsIncomplete();
      });
  if (miss == run + run_count) return false;
  const Status incomplete = (*miss)->status;
  for (size_t i = 0; i < count; ++i) {
    if (!all[i]->resolved()) all[i]->status = incomplete;
  }
  return true;
}

}  // namespace

void VersionMultiGet(DBImpl* db, const TreeVersion& version,
                     const ReadOptions& options, MultiGetRequest* const* reqs,
                     size_t count) {
  MultiGetRequest* const* end = reqs + count;
  for (int level = 0; level < version.num_levels(); level++) {
    if (AllResolved(reqs, count)) return;
    const std::vector<NodePtr>& nodes = version.level(level);
    if (version.overlapping(level)) {
      // Newest node first: the first version found is the visible one.
      for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        const Slice lo((*it)->range_lo), hi((*it)->range_hi);
        MultiGetRequest* const* first =
            std::partition_point(reqs, end, [&](const MultiGetRequest* r) {
              return r->lkey->user_key().compare(lo) < 0;
            });
        MultiGetRequest* const* last =
            std::partition_point(first, end, [&](const MultiGetRequest* r) {
              return r->lkey->user_key().compare(hi) <= 0;
            });
        const size_t run = static_cast<size_t>(last - first);
        ProbeNode(db, *it, options, first, run);
        if (StopAtFirstMiss(options, first, run, reqs, count)) return;
      }
      continue;
    }
    size_t i = 0;
    while (i < count) {
      if (reqs[i]->resolved()) {
        ++i;
        continue;
      }
      const Slice user_key = reqs[i]->lkey->user_key();
      auto node = FirstNodeReaching(nodes, user_key);
      if (node == nodes.end()) break;  // later keys are larger still
      if (Slice((*node)->range_lo).compare(user_key) > 0) {
        ++i;
        continue;
      }
      // Later keys up to the node's range_hi fall inside it too.
      const Slice hi((*node)->range_hi);
      size_t j = i + 1;
      while (j < count && reqs[j]->lkey->user_key().compare(hi) <= 0) ++j;
      ProbeNode(db, *node, options, reqs + i, j - i);
      if (StopAtFirstMiss(options, reqs + i, j - i, reqs, count)) return;
      i = j;
    }
  }
}

void AddVersionIterators(DBImpl* db, const TreeVersionPtr& version,
                         const ReadOptions& options,
                         std::vector<Iterator*>* iters) {
  for (int level = 0; level < version->num_levels(); level++) {
    const std::vector<NodePtr>& nodes = version->level(level);
    if (nodes.empty()) continue;
    if (!version->overlapping(level)) {
      iters->push_back(NewLevelIterator(
          db, version, std::make_shared<const std::vector<NodePtr>>(nodes),
          options));
      continue;
    }
    for (const NodePtr& node : nodes) {
      Iterator* iter = NewNodeIterator(db, node, options);
      iter->RegisterCleanup([pin = version]() mutable { pin.reset(); });
      iters->push_back(iter);
    }
  }
}

}  // namespace iamdb
