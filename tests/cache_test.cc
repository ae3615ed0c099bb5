// LRU block cache tests: hit/miss behaviour, eviction order, capacity
// changes, concurrent access safety, and the allocation-free probe
// guarantee of the fixed 16-byte key type.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "table/cache.h"

// Global allocation counter for the zero-allocation-on-hit test.  Replacing
// operator new/delete is sanctioned by the standard; the counter only has to
// be monotone, not exact.  The replacements stay out of line: a delete
// inlined to free() next to a new that stays a call is what GCC's
// -Wmismatched-new-delete reports.
static std::atomic<uint64_t> g_allocations{0};

[[gnu::noinline]] void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace iamdb {
namespace {

BlockCacheKey K(uint64_t file, uint64_t offset = 0) {
  return BlockCacheKey{file, offset};
}

std::shared_ptr<const void> Val(int v) {
  return std::make_shared<const int>(v);
}

int Deref(const LruCache::ValuePtr& p) {
  return *static_cast<const int*>(p.get());
}

TEST(CacheTest, InsertLookup) {
  LruCache cache(1 << 20);
  cache.Insert(K(1), Val(1), 100);
  auto v = cache.Lookup(K(1));
  ASSERT_NE(nullptr, v);
  EXPECT_EQ(1, Deref(v));
  EXPECT_EQ(nullptr, cache.Lookup(K(999)));
}

TEST(CacheTest, KeyUsesBothWords) {
  LruCache cache(1 << 20);
  cache.Insert(K(1, 10), Val(1), 100);
  cache.Insert(K(1, 20), Val(2), 100);
  cache.Insert(K(2, 10), Val(3), 100);
  EXPECT_EQ(1, Deref(cache.Lookup(K(1, 10))));
  EXPECT_EQ(2, Deref(cache.Lookup(K(1, 20))));
  EXPECT_EQ(3, Deref(cache.Lookup(K(2, 10))));
  EXPECT_EQ(nullptr, cache.Lookup(K(2, 20)));
}

TEST(CacheTest, InsertReplaces) {
  LruCache cache(1 << 20);
  cache.Insert(K(1), Val(1), 100);
  cache.Insert(K(1), Val(2), 100);
  EXPECT_EQ(2, Deref(cache.Lookup(K(1))));
  EXPECT_EQ(100u, cache.usage());
}

TEST(CacheTest, InsertReplaceAdjustsCharge) {
  LruCache cache(1 << 20);
  cache.Insert(K(1), Val(1), 100);
  cache.Insert(K(1), Val(2), 250);
  EXPECT_EQ(250u, cache.usage());
  cache.Insert(K(1), Val(3), 50);
  EXPECT_EQ(50u, cache.usage());
}

TEST(CacheTest, EraseRemoves) {
  LruCache cache(1 << 20);
  cache.Insert(K(1), Val(1), 100);
  cache.Erase(K(1));
  EXPECT_EQ(nullptr, cache.Lookup(K(1)));
  EXPECT_EQ(0u, cache.usage());
  cache.Erase(K(1));  // double erase is a no-op
}

TEST(CacheTest, EvictionRespectsCapacity) {
  LruCache cache(16 * 100);  // 100 bytes per shard
  for (uint64_t i = 0; i < 1000; i++) {
    cache.Insert(K(i, i * 4096), Val(static_cast<int>(i)), 50);
  }
  EXPECT_LE(cache.usage(), 16u * 100u);
}

TEST(CacheTest, LruOrderWithinShard) {
  // All keys in one shard would need hash control; instead verify the
  // aggregate property: recently-used entries survive a pass of inserts.
  LruCache cache(16 * 150);
  cache.Insert(K(0), Val(42), 50);
  for (uint64_t round = 0; round < 100; round++) {
    ASSERT_NE(nullptr, cache.Lookup(K(0))) << "evicted at round " << round;
    cache.Insert(K(1000 + round), Val(static_cast<int>(round)), 50);
    cache.Lookup(K(0));  // keep promoting
  }
}

TEST(CacheTest, ValueLifetimeOutlivesEviction) {
  LruCache cache(16 * 60);
  auto pinned = Val(7);
  cache.Insert(K(1), pinned, 50);
  // Force eviction of K(1).
  for (uint64_t i = 0; i < 200; i++) {
    cache.Insert(K(100 + i), Val(static_cast<int>(i)), 50);
  }
  // The shared_ptr we kept is still valid.
  EXPECT_EQ(7, *static_cast<const int*>(pinned.get()));
}

TEST(CacheTest, HitMissCounters) {
  LruCache cache(1 << 20);
  cache.Insert(K(1), Val(1), 10);
  cache.Lookup(K(1));
  cache.Lookup(K(1));
  cache.Lookup(K(404));
  EXPECT_EQ(2u, cache.hits());
  EXPECT_EQ(1u, cache.misses());
}

TEST(CacheTest, ZeroCapacityHoldsNothing) {
  LruCache cache(0);
  cache.Insert(K(1), Val(1), 10);
  EXPECT_EQ(nullptr, cache.Lookup(K(1)));
}

TEST(CacheTest, LookupDoesNotAllocate) {
  LruCache cache(1 << 20);
  for (uint64_t i = 0; i < 64; i++) {
    cache.Insert(K(i, i * 4096), Val(static_cast<int>(i)), 100);
  }
  // Warm up any lazy internals (hash table growth is done by now).
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_NE(nullptr, cache.Lookup(K(i, i * 4096)));
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 64; i++) {
    auto v = cache.Lookup(K(i, i * 4096));       // hit
    ASSERT_NE(nullptr, v);
    EXPECT_EQ(nullptr, cache.Lookup(K(i, 7)));   // miss
  }
  EXPECT_EQ(before, g_allocations.load(std::memory_order_relaxed))
      << "Lookup must be allocation-free on both hits and misses";
}

TEST(CacheTest, ConcurrentMixedOperations) {
  LruCache cache(1 << 16);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&cache, &failed, t] {
      for (int i = 0; i < 5000; i++) {
        BlockCacheKey key = K((t * 31 + i) % 500, 4096);
        if (i % 3 == 0) {
          cache.Insert(key, Val(i), 64);
        } else if (i % 7 == 0) {
          cache.Erase(key);
        } else {
          auto v = cache.Lookup(key);
          if (v != nullptr && Deref(v) < 0) failed = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_LE(cache.usage(), static_cast<size_t>(1 << 16));
}

}  // namespace
}  // namespace iamdb
