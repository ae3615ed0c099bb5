// AmpStats: per-level write-amplification accounting, the primary metric of
// the paper (Tables 3 and 4).  Engines record every file write with its
// level and reason; write amp of level L = bytes written into L / bytes of
// user data ingested.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace iamdb {

enum class WriteReason {
  kWal = 0,
  kFlush,      // memtable -> first on-disk level
  kAppend,     // LSA/IAM append into a child node
  kMerge,      // merge-compaction rewrite
  kSplit,      // node split rewrite
  kMove,       // metadata-only move (writes no bytes, so never recorded)
  kMetadata,   // MSTable footer rewrites on append
  kNumReasons
};

const char* WriteReasonName(WriteReason r);

class AmpStats {
 public:
  static constexpr int kMaxLevels = 16;

  void RecordUserWrite(uint64_t bytes) {
    user_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // WAL traffic is tracked by reason only; the paper's per-level tables
  // exclude the log.
  void RecordWal(uint64_t bytes) {
    reason_bytes_[static_cast<int>(WriteReason::kWal)].fetch_add(
        bytes, std::memory_order_relaxed);
  }

  // `reason` must not be kWal (use RecordWal).
  void RecordLevelWrite(int level, WriteReason reason, uint64_t bytes) {
    if (level < 0) level = 0;
    if (level >= kMaxLevels) level = kMaxLevels - 1;
    level_bytes_[level].fetch_add(bytes, std::memory_order_relaxed);
    reason_bytes_[static_cast<int>(reason)].fetch_add(
        bytes, std::memory_order_relaxed);
  }

  uint64_t user_bytes() const {
    return user_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t level_bytes(int level) const {
    return level_bytes_[level].load(std::memory_order_relaxed);
  }
  uint64_t reason_bytes(WriteReason r) const {
    return reason_bytes_[static_cast<int>(r)].load(std::memory_order_relaxed);
  }

  // Write amp of one level (excludes WAL by construction: WAL writes are
  // recorded with reason kWal at level 0 but the paper's tables exclude the
  // log, so TotalWriteAmp sums levels only for non-WAL reasons).
  double LevelWriteAmp(int level) const;
  // Sum over levels, excluding the WAL (paper Sec 6.2: "the write
  // amplifications do not include what is incurred by writing log").
  double TotalWriteAmp() const;

  int MaxRecordedLevel() const;
  std::string ToString() const;
  void Reset();

  // Accumulates another instance's counters into this one (ShardedDB
  // presents the sum of its shards).  Relaxed snapshot of `other`:
  // individually consistent counters, like every other reader here.
  void Add(const AmpStats& other);

 private:
  std::atomic<uint64_t> user_bytes_{0};
  std::array<std::atomic<uint64_t>, kMaxLevels> level_bytes_{};
  std::array<std::atomic<uint64_t>,
             static_cast<int>(WriteReason::kNumReasons)>
      reason_bytes_{};
};

}  // namespace iamdb
