// Unified memory arbiter: one Options::memory_budget_bytes pool divided
// between the write side (the memtable quota that drives rotation and
// bounds group commit) and the read side (the uncompressed + compressed
// block-cache tiers), re-divided online from signals the system already
// produces.
//
// The fixed sizing this replaces bakes the write/read split in at Open:
// as the dataset grows the caches run cold while the memtable quota sits
// idle (or vice versa), and the paper's (m,k) mixed-level tuner — whose
// budget is the cache — drifts against a capacity that never moves
// ("Breaking Down Memory Walls", PAPERS.md).  The arbiter closes the
// loop: once per retune interval it folds two per-mille pressure signals
// into EWMAs (alpha = 1/2)
//
//   stall - memtable-full write-stall time as a share of the interval
//           (DBImpl::stall_micros deltas), the write side starving, and
//   miss  - block-cache miss rate over both tiers (cache gauge deltas),
//           the read side starving,
//
// and moves the split one step (1/16 of the pool) toward whichever side is
// starved: stalls past 5% of the interval pull budget toward the memtable
// — unless compaction debt is past kStallDebtBytes, in which case
// the stalls are compaction-bound and a bigger memtable would only defer
// them — while a miss rate past 20% (with stalls quiet) pushes budget
// toward the caches.  Intervals with no read traffic carry
// no read signal and leave the miss EWMA untouched, so a write-only lull
// cannot decay the evidence that reads were starved.  The write quota
// never drops below one memtable (node_capacity) and the read target
// never drops below the minimum cache allotment, so neither side can be
// starved out entirely.
//
// Applying a new division is immediate on the read side —
// LruCache::SetCapacity evicts down to the new target under the shard
// locks — and takes effect at the next rotation on the write side (the
// quota is only consulted when a write checks for room).  After every
// move the caller re-runs the engine's memory-dependent decisions
// (TreeEngine::Retune: the AMT engine re-runs ChooseMixedLevel
// against the new cache capacity), so a grown read share deepens the
// mixed level at the next flush/merge boundary.
//
// Threading: MaybeRebalance/ForceStep are called with the DB mutex held
// (piggybacked on MaybeScheduleBackgroundWork, plus a
// try-lock path from the read side so read-only phases still retune); the
// cache shard locks taken by SetCapacity are leaf locks.  write_quota()
// and the gauges are atomics readable without the mutex (the write path
// reads the quota under the mutex anyway; stats threads read it raw).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/options.h"
#include "table/cache.h"
#include "util/clock.h"

namespace iamdb {

class MemoryArbiter {
 public:
  // Which way a rebalance moved the split.
  enum class Shift { kNone, kToWrite, kToRead };

  // Compaction debt at or above which memtable-full stalls count as
  // compaction-bound: Decide then holds the split instead of growing the
  // memtable.
  static constexpr uint64_t kStallDebtBytes = 256ull << 20;

  // Smallest read-side allotment per cache tier (64KB per shard).
  static uint64_t MinReadBytesPerTier() { return 1ull << 20; }

  // Smallest workable pool: one memtable plus the minimum allotment for
  // each configured cache tier.  Open rejects budgets below this.
  static uint64_t MinBudgetBytes(const Options& options) {
    uint64_t tiers = options.compressed_cache_capacity > 0 ? 2 : 1;
    return options.node_capacity + tiers * MinReadBytesPerTier();
  }

  // Computes the initial division; AttachCaches hands over the tier
  // pointers once DBImpl has constructed them from the initial targets.
  explicit MemoryArbiter(const Options& options,
                         Clock* clock = Clock::Default());

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  // `compressed` may be null (tier off).  Both must outlive the arbiter.
  void AttachCaches(LruCache* block_cache, LruCache* compressed);

  // True once retune_interval_micros have elapsed since the last
  // rebalance (one clock read; lets hot paths skip the rest).
  bool RetuneDue() const;

  // Folds the elapsed interval's stall share and miss rate into the
  // EWMAs and moves the split one step if either side is starved,
  // applying the new read targets to the cache tiers (SetCapacity evicts
  // down).  No-op between intervals.  DB mutex held; returns true when
  // the split moved (caller must re-run TreeEngine::Retune).
  bool MaybeRebalance(uint64_t stall_micros_total, uint64_t debt_bytes);

  // Applies one explicit step (ops/test hook; also what MaybeRebalance
  // calls once it has decided).  DB mutex held; returns true when the
  // split moved (false once clamped at the floor/ceiling).
  bool ForceStep(Shift direction);

  // The control law itself, pure; exposed for deterministic unit tests.
  Shift Decide(uint64_t stall_per_mille, uint64_t miss_per_mille,
               uint64_t debt_bytes) const;

  // Current memtable quota: the rotation threshold MakeRoomForWrite uses
  // in place of node_capacity, and the group-commit size bound.
  uint64_t write_quota() const {
    return write_quota_.load(std::memory_order_relaxed);
  }
  // Current read-side target across both tiers.
  uint64_t read_target() const { return budget_ - write_quota(); }
  uint64_t budget() const { return budget_; }

  // Initial per-tier targets (DBImpl sizes the caches from these before
  // AttachCaches).
  uint64_t uncompressed_target() const;
  uint64_t compressed_target() const;

  // Gauges (exported through DbStats).
  uint64_t retunes() const {
    return retunes_.load(std::memory_order_relaxed);
  }
  uint64_t shifts() const { return shifts_.load(std::memory_order_relaxed); }

 private:
  void ApplyReadTargets();

  const uint64_t retune_interval_micros_;
  const uint64_t budget_;
  const uint64_t write_floor_;      // one memtable (node_capacity)
  const uint64_t write_ceiling_;    // budget - min read allotment
  const uint64_t step_bytes_;
  // Read-share division between the tiers, in the ratio of the configured
  // capacities (0 compressed weight = tier off, everything uncompressed).
  const uint64_t uncompressed_weight_;
  const uint64_t compressed_weight_;
  Clock* const clock_;

  LruCache* block_cache_ = nullptr;
  LruCache* compressed_cache_ = nullptr;

  std::atomic<uint64_t> write_quota_;
  std::atomic<uint64_t> last_retune_micros_;
  std::atomic<uint64_t> last_stall_micros_{0};   // totals at last fold
  std::atomic<uint64_t> last_hits_{0};
  std::atomic<uint64_t> last_misses_{0};
  std::atomic<uint64_t> ewma_stall_pm_{0};
  std::atomic<uint64_t> ewma_miss_pm_{0};
  std::atomic<uint64_t> retunes_{0};
  std::atomic<uint64_t> shifts_{0};
};

}  // namespace iamdb
