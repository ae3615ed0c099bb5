#include "core/memory_arbiter.h"

#include <algorithm>

namespace iamdb {

namespace {

// The write side starts at a quarter of the pool (clamped to the floors):
// every cache miss costs a device read, so reads start with the larger
// share.
constexpr double kInitialWriteFraction = 0.25;
// A step moves 1/16 of the pool: a full swing takes 16 intervals, so one
// noisy interval cannot flip the split.
constexpr double kStepFraction = 1.0 / 16;
// Smoothed memtable-full stalls of 5% of the interval or more starve
// writes.
constexpr uint64_t kStallShiftPerMille = 50;
// A smoothed miss rate of 20% or more (with stalls quiet) starves reads.
constexpr uint64_t kMissShiftPerMille = 200;
// Fewer lookups carry no read signal (the miss EWMA holds): below 64, one
// miss moves the rate by more than 15 per mille.
constexpr uint64_t kMinLookupsPerInterval = 64;

uint64_t Clamp(uint64_t v, uint64_t lo, uint64_t hi) {
  return std::max(lo, std::min(hi, v));
}

}  // namespace

MemoryArbiter::MemoryArbiter(const Options& options, Clock* clock)
    : retune_interval_micros_(options.arbiter.retune_interval_micros),
      budget_(options.memory_budget_bytes),
      write_floor_(options.node_capacity),
      write_ceiling_(budget_ -
                     (options.compressed_cache_capacity > 0 ? 2 : 1) *
                         MinReadBytesPerTier()),
      step_bytes_(std::max<uint64_t>(
          1, static_cast<uint64_t>(budget_ * kStepFraction))),
      uncompressed_weight_(options.block_cache_capacity),
      compressed_weight_(options.compressed_cache_capacity),
      clock_(clock),
      write_quota_(Clamp(
          static_cast<uint64_t>(budget_ * kInitialWriteFraction),
          write_floor_, write_ceiling_)),
      last_retune_micros_(clock->NowMicros()) {}

void MemoryArbiter::AttachCaches(LruCache* block_cache, LruCache* compressed) {
  block_cache_ = block_cache;
  compressed_cache_ = compressed;
}

uint64_t MemoryArbiter::uncompressed_target() const {
  uint64_t read = read_target();
  if (compressed_weight_ == 0) return read;
  uint64_t denom = uncompressed_weight_ + compressed_weight_;
  // Guard each tier at the minimum allotment so a lopsided configured
  // ratio cannot zero a tier out.
  uint64_t share = denom > 0 ? read / denom * uncompressed_weight_ +
                                   read % denom * uncompressed_weight_ / denom
                             : read / 2;
  return Clamp(share, MinReadBytesPerTier(), read - MinReadBytesPerTier());
}

uint64_t MemoryArbiter::compressed_target() const {
  if (compressed_weight_ == 0) return 0;
  return read_target() - uncompressed_target();
}

bool MemoryArbiter::RetuneDue() const {
  return clock_->NowMicros() >=
         last_retune_micros_.load(std::memory_order_relaxed) +
             retune_interval_micros_;
}

MemoryArbiter::Shift MemoryArbiter::Decide(uint64_t stall_per_mille,
                                           uint64_t miss_per_mille,
                                           uint64_t debt_bytes) const {
  if (stall_per_mille >= kStallShiftPerMille) {
    // Writes are stalling on memtable rotation.  But if the tree owes more
    // compaction than kStallDebtBytes, the stall is downstream of merge
    // bandwidth, not memtable capacity — growing the memtable would only
    // delay the same stall and starve the caches meanwhile.
    return debt_bytes >= kStallDebtBytes ? Shift::kNone : Shift::kToWrite;
  }
  if (miss_per_mille >= kMissShiftPerMille) {
    return Shift::kToRead;
  }
  return Shift::kNone;
}

bool MemoryArbiter::MaybeRebalance(uint64_t stall_micros_total,
                                   uint64_t debt_bytes) {
  uint64_t now = clock_->NowMicros();
  uint64_t last = last_retune_micros_.load(std::memory_order_relaxed);
  if (now < last + retune_interval_micros_) return false;
  last_retune_micros_.store(now, std::memory_order_relaxed);
  retunes_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t interval = std::max<uint64_t>(1, now - last);

  // Stall share of the interval, per mille (capped: several writers can
  // stall concurrently, summing past wall time).
  uint64_t last_stall = last_stall_micros_.exchange(stall_micros_total,
                                                    std::memory_order_relaxed);
  uint64_t stall_delta =
      std::min(stall_micros_total - std::min(stall_micros_total, last_stall),
               interval);
  uint64_t stall_pm = stall_delta * 1000 / interval;
  uint64_t ewma_stall =
      (ewma_stall_pm_.load(std::memory_order_relaxed) + stall_pm) / 2;
  ewma_stall_pm_.store(ewma_stall, std::memory_order_relaxed);

  // Miss rate over both tiers.  A hit in either tier avoided device I/O,
  // so the compressed tier's hits count as hits here.
  uint64_t hits = block_cache_->hits();
  uint64_t misses = block_cache_->misses();
  if (compressed_cache_ != nullptr) {
    hits += compressed_cache_->hits();
    // An uncompressed-tier miss that hits the compressed tier would be
    // double-counted as a miss; only the compressed tier's misses (which
    // are the probes that actually fell through to the device) add.
    misses = block_cache_->misses() - std::min(block_cache_->misses(),
                                               compressed_cache_->hits()) +
             compressed_cache_->misses();
  }
  uint64_t last_h = last_hits_.exchange(hits, std::memory_order_relaxed);
  uint64_t last_m = last_misses_.exchange(misses, std::memory_order_relaxed);
  uint64_t hit_delta = hits - std::min(hits, last_h);
  uint64_t miss_delta = misses - std::min(misses, last_m);
  uint64_t lookups = hit_delta + miss_delta;
  uint64_t ewma_miss = ewma_miss_pm_.load(std::memory_order_relaxed);
  if (lookups >= kMinLookupsPerInterval) {
    uint64_t miss_pm = miss_delta * 1000 / lookups;
    ewma_miss = (ewma_miss + miss_pm) / 2;
    ewma_miss_pm_.store(ewma_miss, std::memory_order_relaxed);
  }
  // else: no read traffic, no read signal; the EWMA holds.

  Shift shift = Decide(ewma_stall, ewma_miss, debt_bytes);
  if (shift == Shift::kNone) return false;
  return ForceStep(shift);
}

bool MemoryArbiter::ForceStep(Shift direction) {
  if (direction == Shift::kNone) return false;
  uint64_t quota = write_quota_.load(std::memory_order_relaxed);
  uint64_t target =
      direction == Shift::kToWrite
          ? quota + step_bytes_
          : quota - std::min(quota, step_bytes_);
  target = Clamp(target, write_floor_, write_ceiling_);
  if (target == quota) return false;
  write_quota_.store(target, std::memory_order_relaxed);
  shifts_.fetch_add(1, std::memory_order_relaxed);
  ApplyReadTargets();
  return true;
}

void MemoryArbiter::ApplyReadTargets() {
  // SetCapacity re-divides the per-shard budgets and evicts down to the
  // new target under each shard lock (leaf locks), so a shrink takes
  // effect immediately rather than waiting for insert-time eviction.
  if (block_cache_ != nullptr) {
    block_cache_->SetCapacity(uncompressed_target());
  }
  if (compressed_cache_ != nullptr) {
    compressed_cache_->SetCapacity(compressed_target());
  }
}

}  // namespace iamdb
