// Manifest: the durable log of tree-structure changes.  Both engines record
// the same edit vocabulary — node added / node removed / level-count change
// plus the bookkeeping counters — so recovery is engine-agnostic: replay
// edits into a node map, then hand the levels to the engine.
//
// An in-place node update (an MSTable append, a range widening) is encoded
// as remove+add of the same node_id.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/version.h"
#include "env/env.h"
#include "wal/log_writer.h"

namespace iamdb {

class VersionEdit {
 public:
  void SetLogNumber(uint64_t num) { log_number_ = num; }
  void SetNextFileNumber(uint64_t num) { next_file_number_ = num; }
  void SetNextNodeId(uint64_t id) { next_node_id_ = id; }
  void SetLastSequence(SequenceNumber seq) { last_sequence_ = seq; }
  void SetNumLevels(int n) { num_levels_ = n; }

  void AddNode(const NodeEdit& node) { added_.push_back(node); }
  void RemoveNode(int level, uint64_t node_id) {
    removed_.emplace_back(level, node_id);
  }

  const std::vector<NodeEdit>& added() const { return added_; }
  const std::vector<std::pair<int, uint64_t>>& removed() const {
    return removed_;
  }
  const std::optional<uint64_t>& log_number() const { return log_number_; }
  const std::optional<uint64_t>& next_file_number() const {
    return next_file_number_;
  }
  const std::optional<uint64_t>& next_node_id() const { return next_node_id_; }
  const std::optional<SequenceNumber>& last_sequence() const {
    return last_sequence_;
  }
  const std::optional<int>& num_levels() const { return num_levels_; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

 private:
  std::optional<uint64_t> log_number_;
  std::optional<uint64_t> next_file_number_;
  std::optional<uint64_t> next_node_id_;
  std::optional<SequenceNumber> last_sequence_;
  std::optional<int> num_levels_;
  std::vector<NodeEdit> added_;
  std::vector<std::pair<int, uint64_t>> removed_;
};

// Aggregate state recovered from a manifest replay.
struct RecoveredState {
  uint64_t log_number = 0;
  uint64_t next_file_number = 2;
  uint64_t next_node_id = 1;
  SequenceNumber last_sequence = 0;
  int num_levels = 0;
  // nodes[level] sorted by range_lo (as replayed; engines re-sort).
  std::vector<std::vector<NodeEdit>> nodes;
};

// Owns the MANIFEST file; appends edits durably.
class ManifestWriter {
 public:
  ManifestWriter(Env* env, std::string dbname);

  // Creates a fresh MANIFEST-<number> seeded with `base` (a full snapshot
  // edit) and points CURRENT at it.
  Status Create(uint64_t manifest_number, const VersionEdit& base);

  // Appends one edit record; syncs if `sync`.
  Status Append(const VersionEdit& edit, bool sync);

  uint64_t manifest_number() const { return manifest_number_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Env* env_;
  std::string dbname_;
  uint64_t manifest_number_ = 0;
  uint64_t bytes_written_ = 0;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<log::Writer> log_;
};

// Replays the manifest referenced by CURRENT.
Status RecoverManifest(Env* env, const std::string& dbname,
                       RecoveredState* state);

}  // namespace iamdb
