// Tree metadata shared by both engines.
//
//  * FileLifetime  — RAII owner of an on-disk table file; the physical file
//    is unlinked when the last reference drops AND it was marked obsolete,
//    so live iterators/readers on old versions never lose their data.
//  * NodeImage     — a node's recorded fields: key range and data stats.
//  * NodeMeta      — one live node: its image plus the file lifetime and
//    its table reader.  A written node (NodeFromBuild) is published with
//    the reader its writer handed out; only a node recovered from the
//    manifest (NodeFromEdit) opens its reader lazily, on first use.
//    Immutable once published (appends produce a NEW NodeMeta for the same
//    file at a larger meta_end).
//  * NodeEdit      — a node's image at a level as the manifest records it,
//    and the conversions between it, NodeMeta and a finished table build.
//  * TreeVersion   — immutable snapshot of the whole tree (levels of nodes).
//    Reads grab a shared_ptr under the DB mutex and then run lock-free.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "env/env.h"
#include "table/mstable.h"
#include "table/table_options.h"

namespace iamdb {

class FileLifetime {
 public:
  FileLifetime(Env* env, std::string path) : env_(env), path_(std::move(path)) {}
  ~FileLifetime() {
    if (obsolete_.load(std::memory_order_acquire)) {
      env_->RemoveFile(path_);
    }
  }

  FileLifetime(const FileLifetime&) = delete;
  FileLifetime& operator=(const FileLifetime&) = delete;

  void MarkObsolete() { obsolete_.store(true, std::memory_order_release); }
  const std::string& path() const { return path_; }

 private:
  Env* env_;
  std::string path_;
  std::atomic<bool> obsolete_{false};
};

// A node's recorded fields: everything the manifest persists about it.
struct NodeImage {
  // Stable identity across appends/emptiness (file_number changes when an
  // empty node gets its first file).
  uint64_t node_id = 0;

  // 0 means the node is empty (a range placeholder with no file).
  uint64_t file_number = 0;
  uint64_t meta_end = 0;      // valid size: offset just past the trailer
  uint64_t data_bytes = 0;    // live data across all sequences
  uint64_t num_entries = 0;
  uint32_t seq_count = 0;

  // Covering key range (user keys, inclusive).  May extend beyond the
  // stored data: ranges persist while a node is empty and widen on appends.
  std::string range_lo;
  std::string range_hi;

  // Data extremes as internal keys (empty when the node is empty).
  std::string smallest_ikey;
  std::string largest_ikey;
};

struct NodeMeta;
using NodePtr = std::shared_ptr<NodeMeta>;

struct NodeMeta : NodeImage {
  std::shared_ptr<FileLifetime> lifetime;

  bool empty() const { return file_number == 0 || data_bytes == 0; }

  // The table reader.  A written node has it from birth; a node recovered
  // from the manifest opens it here on first use (reading its metadata
  // region) and memoizes it.  Thread-safe.
  Status OpenReader(Env* env, const TableOptions& options,
                    const InternalKeyComparator* cmp,
                    const std::string& dbname,
                    std::shared_ptr<MSTableReader>* out) const;

  // The reader if it is already open, else null.  Never blocks and takes
  // no lock: an open still in progress counts as not open.
  std::shared_ptr<MSTableReader> OpenedReader() const;

 private:
  friend NodePtr NodeFromBuild(const MSTableBuildResult& result,
                               uint64_t node_id, uint64_t file_number,
                               std::shared_ptr<FileLifetime> lifetime);

  // Held across a recovered node's one-time open (its metadata read).
  // `reader_` is written once, before `opened_` is set — by NodeFromBuild
  // before the node is published, or under the lock — and never changes
  // after, so readers that see `opened_` copy it lock-free.
  mutable std::mutex reader_mu_;
  mutable std::shared_ptr<MSTableReader> reader_;
  mutable std::atomic<bool> opened_{false};
};

// A node's image at a level, as the manifest encodes it (core/manifest.cc).
struct NodeEdit : NodeImage {
  int level = 0;

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice* input);
};

// The node a finished table build describes: its data stats, its exact key
// range (callers widen the range where a node must cover more) and the
// reader the build handed out.
NodePtr NodeFromBuild(const MSTableBuildResult& result, uint64_t node_id,
                      uint64_t file_number,
                      std::shared_ptr<FileLifetime> lifetime);

// A node's manifest image at `level`, and the node an image describes (a
// file-backed one gets a fresh FileLifetime for the file in `dbname`).
NodeEdit ToEdit(const NodeMeta& node, int level);
NodePtr NodeFromEdit(const NodeEdit& e, Env* env, const std::string& dbname);

// An immutable picture of the tree.  levels()[0] is the first ON-DISK level
// (L1 in the paper for AMT; L0 for the leveled engine).  The first
// `overlapping_levels` levels hold nodes whose ranges may overlap, ordered
// oldest to newest (only the leveled engine's L0); every deeper level holds
// disjoint, range-sorted nodes.
class TreeVersion {
 public:
  explicit TreeVersion(std::vector<std::vector<NodePtr>> levels,
                       int overlapping_levels = 0)
      : levels_(std::move(levels)), overlapping_levels_(overlapping_levels) {}

  int num_levels() const { return static_cast<int>(levels_.size()); }
  bool overlapping(int level) const { return level < overlapping_levels_; }
  const std::vector<NodePtr>& level(int i) const { return levels_[i]; }
  const std::vector<std::vector<NodePtr>>& levels() const { return levels_; }

  uint64_t LevelBytes(int i) const {
    uint64_t total = 0;
    for (const auto& n : levels_[i]) total += n->data_bytes;
    return total;
  }

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (int i = 0; i < num_levels(); i++) total += LevelBytes(i);
    return total;
  }

  uint64_t TotalEntries() const {
    uint64_t total = 0;
    for (const auto& lvl : levels_)
      for (const auto& n : lvl) total += n->num_entries;
    return total;
  }

 private:
  std::vector<std::vector<NodePtr>> levels_;
  int overlapping_levels_;
};

using TreeVersionPtr = std::shared_ptr<const TreeVersion>;

}  // namespace iamdb
