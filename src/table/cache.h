// Sharded LRU cache.  Used as the block cache — the explicit stand-in for
// the OS page cache in the paper's setup.  The IAM (m,k) tuner reads the
// capacity from here (paper Sec 5.1.3 measures residency with mincore; we
// control residency directly, see DESIGN.md).
//
// Keys are a fixed 16-byte (file_number, offset) pair — exactly what the
// table layer constructs for every block — so probes never heap-allocate:
// a Lookup hit costs one shard lock, one hash probe and a list splice.
//
// Values are held by shared_ptr so eviction never invalidates a concurrent
// reader; charge accounting uses the caller-declared byte size.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace iamdb {

// Identity of a cached block: the table file and the block's offset in it.
struct BlockCacheKey {
  uint64_t file_number = 0;
  uint64_t offset = 0;

  friend bool operator==(const BlockCacheKey&, const BlockCacheKey&) = default;
};

// splitmix64 finalizer over both words: cheap, well-mixed in every bit, so
// both the shard selector (high bits) and the hash table (low bits) see
// independent distributions.
struct BlockCacheKeyHash {
  size_t operator()(const BlockCacheKey& key) const {
    uint64_t x = key.file_number * 0x9E3779B97F4A7C15ull ^ key.offset;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

class LruCache {
 public:
  using ValuePtr = std::shared_ptr<const void>;

  explicit LruCache(size_t capacity_bytes);
  ~LruCache();  // out-of-line: Shard is incomplete here

  // Insert (replacing any existing entry); the cache holds `value` until
  // evicted.
  void Insert(const BlockCacheKey& key, ValuePtr value, size_t charge);

  // Insert only if the key is absent, returning the resident value either
  // way.  Concurrent readers that miss on the same block race to fill it;
  // the loser adopts the winner's copy instead of replacing it, so a block
  // is never charged (or allocated downstream) twice.
  ValuePtr InsertIfAbsent(const BlockCacheKey& key, ValuePtr value,
                          size_t charge);

  // Returns the value or nullptr; promotes the entry to most-recent.
  // Allocation-free on both hit and miss.
  ValuePtr Lookup(const BlockCacheKey& key);

  void Erase(const BlockCacheKey& key);

  size_t usage() const;
  size_t capacity() const { return capacity_; }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Shard;
  static constexpr int kNumShards = 16;

  Shard* GetShard(const BlockCacheKey& key);

  const size_t capacity_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// Typed convenience wrapper.
template <typename T>
std::shared_ptr<const T> CacheLookup(LruCache& cache,
                                     const BlockCacheKey& key) {
  return std::static_pointer_cast<const T>(cache.Lookup(key));
}

}  // namespace iamdb
