#include "table/cache.h"

namespace iamdb {

struct LruCache::Shard {
  struct Entry {
    BlockCacheKey key;
    ValuePtr value;
    size_t charge;
  };
  using List = std::list<Entry>;

  std::mutex mu;
  List lru;  // front = most recent
  std::unordered_map<BlockCacheKey, List::iterator, BlockCacheKeyHash> index;
  size_t usage = 0;
  size_t capacity = 0;

  void EvictIfNeeded() {
    while (usage > capacity && !lru.empty()) {
      const Entry& victim = lru.back();
      usage -= victim.charge;
      index.erase(victim.key);
      lru.pop_back();
    }
  }
};

LruCache::LruCache(size_t capacity_bytes)
    : capacity_(capacity_bytes), shards_(new Shard[kNumShards]) {
  for (int i = 0; i < kNumShards; i++) {
    shards_[i].capacity = capacity_bytes / kNumShards;
  }
}

LruCache::~LruCache() = default;

LruCache::Shard* LruCache::GetShard(const BlockCacheKey& key) {
  // High bits: decorrelated from the unordered_map's bucket choice.
  static_assert(kNumShards == 16 && sizeof(size_t) == 8,
                "shard selector takes the top 4 bits of a 64-bit hash");
  return &shards_[BlockCacheKeyHash{}(key) >> 60];
}

void LruCache::Insert(const BlockCacheKey& key, ValuePtr value, size_t charge) {
  Shard* shard = GetShard(key);
  std::lock_guard<std::mutex> l(shard->mu);
  // Single probe: try_emplace either finds the existing slot (update the
  // entry in place and splice it to the front) or claims a fresh one.
  auto [it, inserted] = shard->index.try_emplace(key);
  if (inserted) {
    shard->lru.push_front(Shard::Entry{key, std::move(value), charge});
    it->second = shard->lru.begin();
  } else {
    Shard::Entry& entry = *it->second;
    shard->usage -= entry.charge;
    entry.value = std::move(value);
    entry.charge = charge;
    shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
  }
  shard->usage += charge;
  shard->EvictIfNeeded();
}

LruCache::ValuePtr LruCache::InsertIfAbsent(const BlockCacheKey& key,
                                            ValuePtr value, size_t charge) {
  Shard* shard = GetShard(key);
  std::lock_guard<std::mutex> l(shard->mu);
  auto [it, inserted] = shard->index.try_emplace(key);
  if (!inserted) {
    // Lost the fill race: keep the resident copy, just promote it.
    shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
    return it->second->value;
  }
  ValuePtr resident = value;  // survives even if eviction reclaims the entry
  shard->lru.push_front(Shard::Entry{key, std::move(value), charge});
  it->second = shard->lru.begin();
  shard->usage += charge;
  shard->EvictIfNeeded();
  return resident;
}

LruCache::ValuePtr LruCache::Lookup(const BlockCacheKey& key) {
  Shard* shard = GetShard(key);
  std::lock_guard<std::mutex> l(shard->mu);
  auto it = shard->index.find(key);
  if (it == shard->index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
  return it->second->value;
}

void LruCache::Erase(const BlockCacheKey& key) {
  Shard* shard = GetShard(key);
  std::lock_guard<std::mutex> l(shard->mu);
  auto it = shard->index.find(key);
  if (it == shard->index.end()) return;
  shard->usage -= it->second->charge;
  shard->lru.erase(it->second);
  shard->index.erase(it);
}

size_t LruCache::usage() const {
  size_t total = 0;
  for (int i = 0; i < kNumShards; i++) {
    std::lock_guard<std::mutex> l(shards_[i].mu);
    total += shards_[i].usage;
  }
  return total;
}

}  // namespace iamdb
