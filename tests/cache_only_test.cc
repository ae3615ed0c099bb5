// The cache-only read tier (ReadOptions::cache_only) on all three engines.
// A DB reopened cold has an empty block cache and no table reader open;
// against a std::map model the suite checks that memtable keys and keys in
// cached blocks answer as usual, that every read needing the device comes
// back Incomplete without a single device read or file open (IoStats plus
// a file-open counter), that a mixed MultiGet settles each key on its own,
// that a batch stops at its first miss, and that one normal Get warms a
// block for later cache-only reads.  The race cell (run under TSan in CI)
// runs cache-only reads beside writes, flushes and compactions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/counting_env.h"
#include "env/mem_env.h"
#include "shard/sharded_db.h"
#include "stats/io_stats.h"
#include "util/random.h"

namespace iamdb {
namespace {

// Counts random-access file opens: a table reader open is one.
class OpenCountingEnv final : public EnvWrapper {
 public:
  explicit OpenCountingEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    opens_.fetch_add(1, std::memory_order_relaxed);
    return EnvWrapper::NewRandomAccessFile(fname, result);
  }

  uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> opens_{0};
};

struct CacheOnlyParam {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

class CacheOnlyTest : public testing::TestWithParam<CacheOnlyParam> {
 protected:
  static constexpr int kKeys = 3000;

  Options MakeOptions() {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 256 << 10;
    options.leveled.target_file_size = 256 << 10;
    return options;
  }

  void Open() { ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db_).ok()); }

  // A fresh DBImpl: empty cache tiers, no reader open, files kept.
  void Reopen() {
    db_.reset();
    Open();
    ASSERT_TRUE(db_->WaitForQuiescence().ok());
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  static std::string Value(int i, int version) {
    return "val-" + std::to_string(i) + "-v" + std::to_string(version) +
           std::string(100, 'x');
  }

  void Put(int i, int version) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, version)).ok());
    model_[Key(i)] = Value(i, version);
  }

  void Delete(int i) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), Key(i)).ok());
    model_.erase(Key(i));
  }

  // Every key on disk, then a cold reopen.
  void LoadAndReopenCold() {
    Open();
    for (int i = 0; i < kKeys; i++) {
      Put(i, 1);
      if (i % 500 == 499) {
        ASSERT_TRUE(db_->WaitForQuiescence().ok());
      }
    }
    ASSERT_TRUE(db_->FlushAll().ok());
    ASSERT_TRUE(db_->WaitForQuiescence().ok());
    Reopen();
  }

  static ReadOptions CacheOnly() {
    ReadOptions options;
    options.cache_only = true;
    return options;
  }

  // Device reads and file opens since the last call.
  struct Io {
    uint64_t reads;
    uint64_t opens;
  };
  Io IoSince() {
    const Io now{io_stats_.Snapshot().read_ops, open_env_.opens()};
    const Io delta{now.reads - last_io_.reads, now.opens - last_io_.opens};
    last_io_ = now;
    return delta;
  }

  // `s`/`value` must be the model's answer for `key`.
  void ExpectModel(const std::string& key, const Status& s,
                   const std::string& value) {
    auto it = model_.find(key);
    if (it == model_.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key << " " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      EXPECT_EQ(it->second, value) << key;
    }
  }

  void ExpectCacheOnlyGetMatchesModel(int i) {
    std::string value;
    Status s = db_->Get(CacheOnly(), Key(i), &value);
    ExpectModel(Key(i), s, value);
  }

  void ExpectCacheOnlyGetIncomplete(int i) {
    std::string value;
    EXPECT_TRUE(db_->Get(CacheOnly(), Key(i), &value).IsIncomplete())
        << Key(i);
  }

  MemEnv mem_env_;
  OpenCountingEnv open_env_{&mem_env_};
  IoStats io_stats_;
  CountingEnv env_{&open_env_, &io_stats_};
  Io last_io_{0, 0};
  std::unique_ptr<DB> db_;
  std::map<std::string, std::string> model_;
};

// Memtable keys answer from memory; a cold key comes back Incomplete with
// no device read and no reader open; a normal Get warms the key's block,
// after which cache-only reads of that block succeed while a block of the
// same (now open) node that was never read stays Incomplete.
TEST_P(CacheOnlyTest, GetAnswersFromMemoryOrReturnsIncomplete) {
  LoadAndReopenCold();
  Put(10, 2);        // overwrite of a disk key
  Put(kKeys + 5, 2);  // key only in the memtable
  Delete(20);        // tombstone shadowing a disk key
  IoSince();

  ExpectCacheOnlyGetMatchesModel(10);
  ExpectCacheOnlyGetMatchesModel(kKeys + 5);
  ExpectCacheOnlyGetMatchesModel(20);
  const int cold = 1500;
  ExpectCacheOnlyGetIncomplete(cold);
  Io io = IoSince();
  EXPECT_EQ(0u, io.reads) << GetParam().name;
  EXPECT_EQ(0u, io.opens) << GetParam().name;

  // One normal Get opens the node and caches the key's block.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(cold), &value).ok());
  EXPECT_EQ(model_[Key(cold)], value);
  io = IoSince();
  EXPECT_GT(io.reads, 0u);

  // Same block: every neighbour answers from the cache.  ~8 entries fit a
  // 1 KB block, so at least the key and its successor share it.
  ExpectCacheOnlyGetMatchesModel(cold);
  ExpectCacheOnlyGetMatchesModel(cold + 1);
  io = IoSince();
  EXPECT_EQ(0u, io.reads);
  EXPECT_EQ(0u, io.opens);

  // A block a few blocks away in the same node: the reader is open now, so
  // the Incomplete comes from the block tier itself.
  const int far = cold + 40;
  ExpectCacheOnlyGetIncomplete(far);
  io = IoSince();
  EXPECT_EQ(0u, io.reads) << GetParam().name;
  EXPECT_EQ(0u, io.opens) << GetParam().name;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(far), &value).ok());
  io = IoSince();
  EXPECT_EQ(0u, io.opens) << "the far key must share the warm node";
  EXPECT_EQ(1u, io.reads) << GetParam().name;
  ExpectCacheOnlyGetMatchesModel(far);
}

// Per-key statuses in a batch: found and NotFound from the memtable and
// found from a cached block; Incomplete for every cold key, duplicates
// included, while the memtable keys of the same batch are still answered.
// No device read for any of them.
TEST_P(CacheOnlyTest, MixedMultiGetSettlesEachKey) {
  LoadAndReopenCold();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(100), &value).ok());
  Put(kKeys + 1, 2);
  Delete(200);
  IoSince();

  // Returns the batch's keys, statuses and values.
  struct Batch {
    std::vector<std::string> keys;
    std::vector<Status> statuses;
    std::vector<std::string> values;
  };
  auto multi_get = [&](const ReadOptions& options,
                       const std::vector<int>& ids) {
    Batch b;
    for (int i : ids) b.keys.push_back(Key(i));
    std::vector<Slice> slices(b.keys.begin(), b.keys.end());
    b.statuses.resize(ids.size());
    b.values.resize(ids.size());
    db_->MultiGet(options, slices.size(), slices.data(), b.values.data(),
                  b.statuses.data());
    return b;
  };

  // Memory answers everything: memtable value, memtable tombstone, and
  // two keys of the block the Get above cached.
  Batch warm = multi_get(CacheOnly(), {kKeys + 1, 200, 100, 101});
  for (size_t i = 0; i < warm.keys.size(); i++) {
    ExpectModel(warm.keys[i], warm.statuses[i], warm.values[i]);
  }

  const std::vector<int> mixed_ids = {kKeys + 1, 200, 2500, 1200, 2500};
  const std::vector<bool> cold = {false, false, true, true, true};
  Batch mixed = multi_get(CacheOnly(), mixed_ids);
  for (size_t i = 0; i < mixed.keys.size(); i++) {
    if (cold[i]) {
      EXPECT_TRUE(mixed.statuses[i].IsIncomplete())
          << mixed.keys[i] << " " << mixed.statuses[i].ToString();
    } else {
      ExpectModel(mixed.keys[i], mixed.statuses[i], mixed.values[i]);
    }
  }
  const Io io = IoSince();
  EXPECT_EQ(0u, io.reads) << GetParam().name;
  EXPECT_EQ(0u, io.opens) << GetParam().name;

  // The same batch without the flag reads the device and answers it all.
  mixed = multi_get(ReadOptions(), mixed_ids);
  for (size_t i = 0; i < mixed.keys.size(); i++) {
    ExpectModel(mixed.keys[i], mixed.statuses[i], mixed.values[i]);
  }
  EXPECT_GT(IoSince().reads, 0u);
}

// A cache-only batch stops at its first miss: with every reader open and
// no block cached, a batch of keys spread over the whole key space probes
// the cache for the first node's keys only, and every key comes back
// Incomplete.
TEST_P(CacheOnlyTest, CacheOnlyBatchStopsAtFirstMiss) {
  LoadAndReopenCold();
  // Open every node's reader without caching a block.
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::unique_ptr<Iterator> iter(db_->NewIterator(no_fill));
  int scanned = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) scanned++;
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  ASSERT_EQ(kKeys, scanned);
  iter.reset();

  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; i += 150) keys.push_back(Key(i));
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  const uint64_t misses_before = db_->GetStats().cache_misses;
  IoSince();
  db_->MultiGet(CacheOnly(), slices.size(), slices.data(), values.data(),
                statuses.data());
  const uint64_t misses = db_->GetStats().cache_misses - misses_before;
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_TRUE(statuses[i].IsIncomplete())
        << keys[i] << " " << statuses[i].ToString();
  }
  // 20 keys, each in its own block; a node holds a handful of them.
  EXPECT_GT(misses, 0u) << GetParam().name;
  EXPECT_LT(misses, keys.size() / 2) << GetParam().name;
  const Io io = IoSince();
  EXPECT_EQ(0u, io.reads) << GetParam().name;
  EXPECT_EQ(0u, io.opens) << GetParam().name;
}

// Iterators honour the flag: a cold scan stops with Incomplete instead of
// reading a block or opening a reader.
TEST_P(CacheOnlyTest, ColdIteratorReturnsIncomplete) {
  LoadAndReopenCold();
  IoSince();
  std::unique_ptr<Iterator> iter(db_->NewIterator(CacheOnly()));
  iter->Seek(Key(1000));
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsIncomplete()) << iter->status().ToString();
  iter.reset();
  const Io io = IoSince();
  EXPECT_EQ(0u, io.reads) << GetParam().name;
  EXPECT_EQ(0u, io.opens) << GetParam().name;
}

// Race cell (TSan): cache-only batches beside a writer that forces
// rotations, flushes and compactions.  Every key exists from the start, so
// each answer is either a well-formed version of its key or Incomplete.
TEST_P(CacheOnlyTest, RacesWithFlushAndCompaction) {
  Open();
  const int kKeySpace = 2000;
  for (int i = 0; i < kKeySpace; i++) Put(i, 0);

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    Random64 rnd(7);
    for (int version = 1; version <= 6; version++) {
      for (int i = 0; i < kKeySpace; i++) {
        const int k = static_cast<int>(rnd.Next() % kKeySpace);
        if (!db_->Put(WriteOptions(), Key(k), Value(k, version)).ok()) {
          errors.fetch_add(1);
        }
      }
    }
    done.store(true);
  });
  std::thread reader([&] {
    Random64 rnd(8);
    while (!done.load()) {
      std::vector<std::string> keys;
      for (int i = 0; i < 32; i++) {
        keys.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
      }
      std::vector<Slice> slices(keys.begin(), keys.end());
      std::vector<std::string> values(keys.size());
      std::vector<Status> statuses(keys.size());
      db_->MultiGet(CacheOnly(), slices.size(), slices.data(), values.data(),
                    statuses.data());
      for (size_t i = 0; i < keys.size(); i++) {
        if (statuses[i].IsIncomplete()) continue;
        const std::string prefix = "val-" + std::to_string(std::stoi(
                                                keys[i].substr(3))) + "-v";
        if (!statuses[i].ok() || values[i].compare(0, prefix.size(),
                                                   prefix) != 0) {
          errors.fetch_add(1);
        }
      }
    }
  });
  writer.join();
  reader.join();
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_EQ(0, errors.load());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CacheOnlyTest,
    testing::Values(
        CacheOnlyParam{EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
        CacheOnlyParam{EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
        CacheOnlyParam{EngineType::kAmt, AmtPolicy::kIam, "iam"}),
    [](const testing::TestParamInfo<CacheOnlyParam>& info) {
      return info.param.name;
    });

// ShardedDB routes the flag to every shard: a cold key of any shard is
// Incomplete, a memtable key is answered.
TEST(ShardedCacheOnlyTest, FlagReachesEveryShard) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", 4, &db).ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), std::string("k").append(std::to_string(i)), "v")
            .ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  db.reset();
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", 4, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "fresh", "new").ok());

  std::vector<std::string> keys = {"fresh"};
  for (int i = 0; i < 1000; i += 50) {
    keys.push_back(std::string("k").append(std::to_string(i)));
  }
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  ReadOptions cache_only;
  cache_only.cache_only = true;
  db->MultiGet(cache_only, slices.size(), slices.data(), values.data(),
               statuses.data());
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ("new", values[0]);
  for (size_t i = 1; i < keys.size(); i++) {
    EXPECT_TRUE(statuses[i].IsIncomplete()) << keys[i];
  }
  db->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
               statuses.data());
  for (size_t i = 1; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i];
    EXPECT_EQ("v", values[i]);
  }
}

}  // namespace
}  // namespace iamdb
