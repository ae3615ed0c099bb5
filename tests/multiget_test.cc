// Point reads (Get is a one-key MultiGet): batches and single Gets checked
// against a std::map model at head and at a pinned snapshot across all
// three engines, device-read coalescing on a cold cache (the batch must
// issue strictly fewer reads than the loop), and a race cell exercising
// MultiGet against concurrent writes, flushes and compactions (run under
// TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "stats/io_stats.h"
#include "util/random.h"

namespace iamdb {
namespace {

struct MultiGetParam {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

class MultiGetTest : public testing::TestWithParam<MultiGetParam> {
 protected:
  Options MakeOptions() {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    // Tiny cache so block reads actually hit the "device".
    options.block_cache_capacity = 16 << 10;
    options.amt.memory_budget_bytes = 16 << 10;
    options.leveled.max_bytes_level1 = 256 << 10;
    options.leveled.target_file_size = 32 << 10;
    return options;
  }

  void Open(const Options& options) {
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }
  void Open() { Open(MakeOptions()); }

  // Close + reopen: a fresh DBImpl gets fresh (cold) cache tiers while the
  // MemEnv keeps the files.
  void Reopen() {
    db_.reset();
    Open();
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  std::string Value(int i, int version) {
    return "val-" + std::to_string(i) + "-v" + std::to_string(version) +
           std::string(80, 'x');
  }

  using Model = std::map<std::string, std::string>;

  void ExpectMatchesModel(const ReadOptions& options,
                          const std::vector<std::string>& keys,
                          const Model& model) {
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    db_->MultiGet(options, slices.size(), slices.data(), values.data(),
                  statuses.data());
    for (size_t i = 0; i < keys.size(); i++) {
      auto it = model.find(keys[i]);
      if (it == model.end()) {
        EXPECT_TRUE(statuses[i].IsNotFound()) << keys[i];
      } else {
        ASSERT_TRUE(statuses[i].ok()) << keys[i] << statuses[i].ToString();
        EXPECT_EQ(it->second, values[i]) << keys[i];
      }
    }
  }

  void ExpectGetsMatchModel(const ReadOptions& options,
                            const std::vector<std::string>& keys,
                            const Model& model) {
    for (const std::string& k : keys) {
      std::string value;
      Status s = db_->Get(options, k, &value);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << k;
      } else {
        ASSERT_TRUE(s.ok()) << k << s.ToString();
        EXPECT_EQ(it->second, value) << k;
      }
    }
  }

  int LevelZeroFiles() {
    std::string levels;
    EXPECT_TRUE(db_->GetProperty("iamdb.levels", &levels));
    int files = 0;
    EXPECT_EQ(1, std::sscanf(levels.c_str(), "L0: %d nodes", &files))
        << levels;
    return files;
  }

  // Reference semantics: MultiGet must match Get key for key.
  void ExpectMatchesLoopedGets(const ReadOptions& options,
                               const std::vector<std::string>& keys) {
    std::vector<Slice> slices;
    slices.reserve(keys.size());
    for (const std::string& k : keys) slices.emplace_back(k);
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    db_->MultiGet(options, slices.size(), slices.data(), values.data(),
                  statuses.data());

    for (size_t i = 0; i < keys.size(); i++) {
      std::string expect_value;
      Status expect = db_->Get(options, keys[i], &expect_value);
      EXPECT_EQ(expect.ok(), statuses[i].ok()) << keys[i];
      EXPECT_EQ(expect.IsNotFound(), statuses[i].IsNotFound()) << keys[i];
      if (expect.ok()) {
        EXPECT_EQ(expect_value, values[i]) << keys[i];
      }
    }
  }

  MemEnv env_;
  std::unique_ptr<DB> db_;
};

// Seeded Put/Delete stream mirrored into a std::map model; batches mix
// hits, misses, deleted keys and duplicates, read at head and at a snapshot
// pinned before a second wave of overwrites.  The data spans the memtable
// and several on-disk levels; for the leveled engine the newest data sits
// in overlapping L0 files that must be probed newest first.
TEST_P(MultiGetTest, MatchesModel) {
  Open();
  Random64 rnd(42);
  const int kKeySpace = 6000;
  Model model;

  auto put = [&](int k, int version) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(k), Value(k, version)).ok());
    model[Key(k)] = Value(k, version);
  };
  auto mutate = [&](int ops, int version) {
    for (int i = 0; i < ops; i++) {
      int k = static_cast<int>(rnd.Next() % kKeySpace);
      if (rnd.Next() % 7 == 0) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), Key(k)).ok());
        model.erase(Key(k));
      } else {
        put(k, version);
      }
      if (i % 500 == 499) {
        ASSERT_TRUE(db_->WaitForQuiescence().ok());
      }
    }
  };

  mutate(8000, 1);
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  // Reopen with L0 compaction out of reach: every later flush stays in L0
  // on top of the deeper levels built so far.
  Options options = MakeOptions();
  options.leveled.l0_compaction_trigger = 1000;
  options.leveled.l0_slowdown_trigger = 1000;
  options.leveled.l0_stop_trigger = 1000;
  db_.reset();
  Open(options);

  const Snapshot* snap = db_->GetSnapshot();
  const Model snap_model = model;

  // Second wave: overwrites and deletes the snapshot must not observe,
  // ending with unflushed keys so the batch spans mem + disk levels.
  mutate(3000, 2);
  ASSERT_TRUE(db_->FlushAll().ok());
  for (int i = 0; i < 200; i++) {
    put(static_cast<int>(rnd.Next() % kKeySpace), 3);
  }

  std::vector<std::string> batch;
  for (int i = 0; i < 192; i++) {
    batch.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
  }
  batch.push_back("absent-before-everything");
  batch.push_back("zzz-absent-after-everything");
  // Duplicate keys must each get the full answer.
  batch.push_back(batch[0]);
  batch.push_back(batch[1]);

  if (GetParam().engine == EngineType::kLeveled) {
    ASSERT_GE(LevelZeroFiles(), 2);
  }

  ReadOptions at_snap;
  at_snap.snapshot = snap;

  // Gets alone never count as batches.
  ExpectGetsMatchModel(ReadOptions(), batch, model);
  ExpectGetsMatchModel(at_snap, batch, snap_model);
  DbStats stats = db_->GetStats();
  EXPECT_EQ(0u, stats.multiget_batches);
  EXPECT_EQ(0u, stats.multiget_keys);
  EXPECT_EQ(0u, stats.multiget_coalesced_reads);

  ExpectMatchesModel(ReadOptions(), batch, model);
  ExpectMatchesModel(at_snap, batch, snap_model);
  ExpectMatchesLoopedGets(ReadOptions(), batch);
  ExpectMatchesLoopedGets(at_snap, batch);

  db_->ReleaseSnapshot(snap);
}

// The acceptance metric: a cold-cache batch of 64 adjacent keys must reach
// the device with strictly fewer read ops than 64 looped Gets over the
// same keys — adjacent data blocks coalesce into vectored runs that
// CountingEnv charges as one read each.
TEST_P(MultiGetTest, ColdCacheBatchIssuesFewerDeviceReads) {
  Open();
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(db_->WaitForQuiescence().ok());
    }
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());

  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 10000; i < 10064; i++) keys.push_back(Key(i));
  for (const std::string& k : keys) slices.emplace_back(k);

  Reopen();
  uint64_t multiget_reads = 0;
  {
    std::vector<std::string> values(keys.size());
    std::vector<Status> statuses(keys.size());
    OpIoScope scope;
    db_->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
                  statuses.data());
    multiget_reads = scope.context().seeks;
    for (size_t i = 0; i < keys.size(); i++) {
      ASSERT_TRUE(statuses[i].ok()) << keys[i];
      EXPECT_EQ(Value(10000 + static_cast<int>(i), 1), values[i]);
    }
  }

  // Gauges live on the instance that served the batch (reopen resets them).
  DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, keys.size());

  Reopen();
  uint64_t looped_reads = 0;
  for (const std::string& k : keys) {
    std::string value;
    OpIoScope scope;
    ASSERT_TRUE(db_->Get(ReadOptions(), k, &value).ok()) << k;
    looped_reads += scope.context().seeks;
  }

  EXPECT_LT(multiget_reads, looped_reads) << GetParam().name;
}

// Coalescing gauges flow from the table layer to DbStats.
TEST_P(MultiGetTest, CoalescingGaugesRecorded) {
  Open();
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 1)).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(db_->WaitForQuiescence().ok());
    }
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  Reopen();

  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 5000; i < 5064; i++) keys.push_back(Key(i));
  for (const std::string& k : keys) slices.emplace_back(k);
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db_->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
                statuses.data());

  DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, keys.size());
  // 64 adjacent keys over ~1KB blocks cannot all live in one block: at
  // least one vectored read covered 2+ adjacent blocks.
  EXPECT_GT(stats.multiget_coalesced_reads, 0u) << GetParam().name;
  EXPECT_GE(stats.multiget_coalesced_blocks,
            2 * stats.multiget_coalesced_reads);
}

// Race cell (TSan): MultiGet batches run against a writer that forces
// memtable rotations, flushes and compactions.  Every returned value must
// be a well-formed version of its key — a torn read, use-after-free of a
// retired memtable, or a double cache insert shows up here.
TEST_P(MultiGetTest, RacesWithFlushAndCompaction) {
  Open();
  const int kKeySpace = 2000;
  for (int i = 0; i < kKeySpace; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i, 0)).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::mutex diag_mu;
  std::string diag;

  std::thread writer([&] {
    Random64 rnd(11);
    for (int version = 1; version <= 8 && errors.load() == 0; version++) {
      for (int i = 0; i < kKeySpace; i++) {
        int k = static_cast<int>(rnd.Next() % kKeySpace);
        if (!db_->Put(WriteOptions(), Key(k), Value(k, version)).ok()) {
          errors.fetch_add(1);
          break;
        }
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&, t] {
      Random64 rnd(100 + t);
      while (!done.load()) {
        std::vector<std::string> keys;
        std::vector<Slice> slices;
        for (int i = 0; i < 48; i++) {
          keys.push_back(Key(static_cast<int>(rnd.Next() % kKeySpace)));
        }
        for (const std::string& k : keys) slices.emplace_back(k);
        std::vector<std::string> values(keys.size());
        std::vector<Status> statuses(keys.size());
        db_->MultiGet(ReadOptions(), slices.size(), slices.data(),
                      values.data(), statuses.data());
        for (size_t i = 0; i < keys.size(); i++) {
          // Every key was loaded before the race, so it must be found with
          // a value stamped for exactly that key: "val-<n>-v<version>x...".
          bool ok = statuses[i].ok();
          if (ok) {
            size_t dash = values[i].find("-v", 4);
            ok = values[i].compare(0, 4, "val-") == 0 &&
                 dash != std::string::npos &&
                 Key(atoi(values[i].substr(4, dash - 4).c_str())) == keys[i];
          }
          if (!ok) {
            errors.fetch_add(1);
            std::string retry_value;
            Status retry = db_->Get(ReadOptions(), keys[i], &retry_value);
            std::lock_guard<std::mutex> l(diag_mu);
            if (diag.empty()) {
              diag = "key=" + keys[i] + " status=" +
                     statuses[i].ToString() + " value=" +
                     values[i].substr(0, 40) +
                     " retry_status=" + retry.ToString() +
                     " retry_value=" + retry_value.substr(0, 40);
            }
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& r : readers) r.join();
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_EQ(errors.load(), 0) << diag;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MultiGetTest,
    testing::Values(
        MultiGetParam{EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
        MultiGetParam{EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
        MultiGetParam{EngineType::kAmt, AmtPolicy::kIam, "iam"}),
    [](const testing::TestParamInfo<MultiGetParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
