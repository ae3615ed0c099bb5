// Torture tests: randomized operation storms interleaved with reopen
// cycles, torn WALs, snapshot pinning and structural validation — one
// continuous model-checked history per engine configuration.
#include <gtest/gtest.h>

#include <map>

#include "core/db.h"
#include "core/filename.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"

namespace iamdb {
namespace {

struct StressParam {
  EngineType engine;
  AmtPolicy policy;
  int threads;
  const char* name;
};

class StressTest : public testing::TestWithParam<StressParam> {
 protected:
  Options MakeOptions() {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.background_threads = GetParam().threads;
    options.node_capacity = 16 << 10;  // tiny: maximal structural churn
    options.table.block_size = 512;
    options.amt.fanout = 3;            // minimum sensible fan-out
    options.leveled.max_bytes_level1 = 48 << 10;
    options.leveled.target_file_size = 8 << 10;
    options.block_cache_capacity = 256 << 10;
    // CI's TSAN compression cell sets IAMDB_TEST_COMPRESSION so concurrent
    // readers hammer the decompress path and the compressed cache tier.
    options.table.compression = test::TestCompression();
    if (options.table.compression != CompressionType::kNone) {
      options.compressed_cache_capacity = 256 << 10;
    }
    return options;
  }

  std::string Key(uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08llu",
             static_cast<unsigned long long>(i));
    return buf;
  }

  MemEnv env_;
};

TEST_P(StressTest, OperationStormWithReopens) {
  const uint64_t seed = test::TestSeed(GetParam().threads * 7 + 1);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::map<std::string, std::string> model;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  const int kEpochs = 6;
  const int kOpsPerEpoch = 6000;
  const uint64_t kKeySpace = 3000;

  for (int epoch = 0; epoch < kEpochs; epoch++) {
    for (int i = 0; i < kOpsPerEpoch; i++) {
      uint64_t k = rnd.Next() % kKeySpace;
      std::string key = Key(k);
      uint32_t op = static_cast<uint32_t>(rnd.Next() % 100);
      if (op < 55) {
        std::string value(1 + rnd.Next() % 300,
                          static_cast<char>('a' + k % 26));
        ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
        model[key] = value;
      } else if (op < 75) {
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
        model.erase(key);
      } else if (op < 95) {
        std::string value;
        Status s = db->Get(ReadOptions(), key, &value);
        auto it = model.find(key);
        if (it == model.end()) {
          ASSERT_TRUE(s.IsNotFound()) << key;
        } else {
          ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
          ASSERT_EQ(it->second, value) << key;
        }
      } else {
        // Short scan cross-checked against the model.
        std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
        iter->Seek(key);
        auto it = model.lower_bound(key);
        for (int step = 0; step < 8 && it != model.end();
             ++step, ++it, iter->Next()) {
          ASSERT_TRUE(iter->Valid()) << "scan from " << key;
          ASSERT_EQ(it->first, iter->key().ToString());
          ASSERT_EQ(it->second, iter->value().ToString());
        }
      }
    }

    // Epoch boundary: structural checks + reopen (every other epoch a
    // torn-WAL crash is simulated by chopping the newest log's tail).
    // FlushAll first so the model is entirely in tables and the chopped
    // log tail is empty — losing it must not lose committed model state.
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->CheckInvariants(true).ok()) << "epoch " << epoch;
    db.reset();

    if (epoch % 2 == 1) {
      std::vector<std::string> children;
      ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
      uint64_t newest_log = 0;
      for (const auto& child : children) {
        uint64_t number;
        FileType type;
        if (ParseFileName(child, &number, &type) &&
            type == FileType::kLogFile) {
          newest_log = std::max(newest_log, number);
        }
      }
      if (newest_log != 0) {
        std::string name = LogFileName("/db", newest_log);
        uint64_t size = 0;
        env_.GetFileSize(name, &size);
        if (size > 4) {
          ASSERT_TRUE(env_.Truncate(name, size - 3).ok());
        }
        // The quiesced model is durable in tables; at most the empty
        // current-log tail was torn, so the model stays exact.
      }
    }
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  }

  // Final exhaustive comparison.
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  std::map<std::string, std::string> dump;
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dump[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(model, dump);
}

TEST_P(StressTest, SnapshotPinningUnderChurn) {
  const uint64_t seed = test::TestSeed(99);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db2", &db).ok());

  // Several epochs, each freezing a snapshot + model copy, then churning.
  std::vector<const Snapshot*> snaps;
  std::vector<std::map<std::string, std::string>> snap_models;
  std::map<std::string, std::string> model;

  for (int epoch = 0; epoch < 4; epoch++) {
    for (int i = 0; i < 4000; i++) {
      uint64_t k = rnd.Next() % 800;
      std::string key = Key(k);
      if (rnd.Next() % 4 == 0) {
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
        model.erase(key);
      } else {
        std::string value = std::string("e")
                                .append(std::to_string(epoch))
                                .append("-")
                                .append(std::to_string(i));
        ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
        model[key] = value;
      }
    }
    snaps.push_back(db->GetSnapshot());
    snap_models.push_back(model);
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());

  // Every snapshot still sees exactly its frozen state, despite all the
  // compaction that has happened since.
  for (size_t s = 0; s < snaps.size(); s++) {
    ReadOptions at;
    at.snapshot = snaps[s];
    for (uint64_t k = 0; k < 800; k += 13) {
      std::string key = Key(k);
      std::string value;
      Status st = db->Get(at, key, &value);
      auto it = snap_models[s].find(key);
      if (it == snap_models[s].end()) {
        ASSERT_TRUE(st.IsNotFound()) << "snap " << s << " " << key;
      } else {
        ASSERT_TRUE(st.ok()) << "snap " << s << " " << key;
        ASSERT_EQ(it->second, value) << "snap " << s << " " << key;
      }
    }
    // Scans through the snapshot agree too.
    std::unique_ptr<Iterator> iter(db->NewIterator(at));
    size_t seen = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) seen++;
    ASSERT_EQ(snap_models[s].size(), seen) << "snap " << s;
  }
  for (const Snapshot* snap : snaps) db->ReleaseSnapshot(snap);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StressTest,
    testing::Values(
        StressParam{EngineType::kLeveled, AmtPolicy::kLsa, 1, "Leveled1t"},
        StressParam{EngineType::kLeveled, AmtPolicy::kLsa, 3, "Leveled3t"},
        StressParam{EngineType::kAmt, AmtPolicy::kLsa, 1, "Lsa1t"},
        StressParam{EngineType::kAmt, AmtPolicy::kLsa, 3, "Lsa3t"},
        StressParam{EngineType::kAmt, AmtPolicy::kIam, 1, "Iam1t"},
        StressParam{EngineType::kAmt, AmtPolicy::kIam, 3, "Iam3t"}),
    [](const testing::TestParamInfo<StressParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace iamdb
