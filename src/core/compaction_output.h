// The data-movement primitives every engine job shares (Sarkar et al.'s
// "data movement" split out of compaction policy):
//
//  * CompactionOutput  — the one path by which a flush, merge, split or
//    rewrite turns a record stream into new table files and the NodeMeta
//    that describe them.
//  * RunSubcompactions — the one fan-out that shards a job's independent
//    units (leveled: next-level inputs; AMT: flush targets) across the
//    background pool.
//
// Callers keep the policy: which records go in, how output ranges widen,
// which WriteReason the bytes count under, and how the outputs install.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compaction_stream.h"
#include "core/tree_engine.h"
#include "core/version.h"
#include "table/mstable.h"

namespace iamdb {

class DBImpl;

// Writes records into a run of new single-sequence table files.  Runs
// without the DB mutex; takes it only to allocate a file and node number
// when it opens a file, so a job that writes nothing allocates nothing.
class CompactionOutput {
 public:
  static constexpr uint64_t kNoCut = UINT64_MAX;

  // Once the open file holds `cut_bytes` data bytes, the next record with a
  // different user key opens a new file: all versions of a key stay in one
  // file, so the outputs' ranges are user-key-disjoint.  kNoCut never cuts
  // (and tracks no keys).
  explicit CompactionOutput(DBImpl* db, uint64_t cut_bytes = kNoCut);

  // Writes the stream's records until it ends or reaches a user key >=
  // *stop (null: no stop), which it leaves unconsumed.  Returns the first
  // failure so far, the stream's included; after one it writes nothing.
  Status AddStream(CompactionStream* stream,
                   const std::string* stop = nullptr);

  // Finishes the open file, if any; the next record opens a new one.
  Status Cut();

  // Finishes the open file.  If this or any earlier call failed, abandons
  // the open file and marks every finished output obsolete.
  Status Finish();

  // Finished outputs in key order, with their exact key ranges, and the
  // data and metadata bytes written into them.
  const std::vector<NodePtr>& outputs() const { return outputs_; }
  uint64_t data_bytes() const { return data_bytes_; }
  uint64_t meta_bytes() const { return meta_bytes_; }

 private:
  DBImpl* db_;
  uint64_t cut_bytes_;
  Status status_;
  std::unique_ptr<MSTableWriter> writer_;  // the open file, if any
  uint64_t file_number_ = 0;
  uint64_t node_id_ = 0;
  std::string last_user_key_;  // of the last record written (cutting only)
  std::vector<NodePtr> outputs_;
  uint64_t data_bytes_ = 0;
  uint64_t meta_bytes_ = 0;
};

// A compaction input: the node's reader and its data extent, read whole
// once per job (MSTableReader::ReadNode).  Every iterator the job opens
// over the node, on whichever shard's thread, serves its blocks from the
// one image, which is immutable; none reads the device or the caches.
struct InputNode {
  std::shared_ptr<MSTableReader> reader;
  std::shared_ptr<const NodeData> image;

  Iterator* NewIterator() const { return reader->NewIterator(image); }
};

// Opens `node`'s reader and reads its image, one device read.
Status ReadInputNode(DBImpl* db, const NodeMeta& node, InputNode* input);

// Splits units [0, cost.size()) into at most F contiguous groups of about
// equal total cost, F = max_subcompactions (0: background_threads) capped
// at the unit count, and calls run_group(begin, end) once per group.  With
// F <= 1 the one group runs on the calling thread; otherwise each group is
// a pool task on `lane`'s pool lane.  Every group runs even after one
// fails (cleanup needs them finished); returns the first failure in group
// order.
Status RunSubcompactions(
    DBImpl* db, const std::vector<uint64_t>& cost, TreeEngine::WorkLane lane,
    const std::function<Status(size_t begin, size_t end)>& run_group);

}  // namespace iamdb
