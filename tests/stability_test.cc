// StabilityTest — seeded (IAMDB_TEST_SEED-replayable) end-to-end runs on
// all three engines: compaction debt stays bounded, no single write stalls
// pathologically, and the tree drains to a consistent state that still
// serves the newest write.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "core/db.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"

namespace iamdb {
namespace {

struct EngineSpec {
  const char* name;
  EngineType engine;
  AmtPolicy policy;
};

class StabilityTest : public ::testing::TestWithParam<EngineSpec> {};

TEST_P(StabilityTest, BoundsDebtAndStalls) {
  const uint64_t seed = test::TestSeed(20260807);
  SCOPED_TRACE(test::SeedTrace(seed));
  const EngineSpec& spec = GetParam();

  MemEnv env;
  Options options;
  options.env = &env;
  options.engine = spec.engine;
  options.amt.policy = spec.policy;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.leveled.target_file_size = 32 << 10;
  options.leveled.max_bytes_level1 = 5 * (64 << 10);
  options.background_threads = 2;
  options.max_subcompactions = 2;
  options.block_cache_capacity = 8 << 20;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/stability", &db).ok());

  const uint64_t kOps = 6000;
  const uint64_t kKeySpace = kOps / 2;
  // Merges keep debt near what the running jobs owe: twice 1MB
  // plus a handful of in-flight nodes holds with wide margin, and fails
  // quickly if background work falls behind for good.
  const uint64_t kDebtBound = 2 * (1 << 20) + 8 * options.node_capacity;
  const uint64_t kMaxPutMicros = 2 * 1000 * 1000;

  Random64 rnd(seed);
  const std::string value(512, 'v');
  char key[32];
  uint64_t max_put_micros = 0;
  for (uint64_t i = 0; i < kOps; i++) {
    std::snprintf(key, sizeof(key), "user%012llu",
                  static_cast<unsigned long long>(rnd.Uniform(kKeySpace)));
    const auto put_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    const uint64_t put_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - put_start)
            .count();
    max_put_micros = std::max(max_put_micros, put_micros);
    if (i % 128 == 0) {
      DbStats stats = db->GetStats();
      EXPECT_LT(stats.pending_debt_bytes, kDebtBound)
          << "debt unbounded at op " << i;
    }
  }
  EXPECT_LT(max_put_micros, kMaxPutMicros)
      << "a single write stalled " << max_put_micros << "us";

  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(/*quiescent=*/true).ok());

  // Quiescence means the debt signal drained.
  EXPECT_EQ(db->GetStats().pending_debt_bytes, 0u);
  // Reads still see every key written (spot check via the newest key).
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), key, &got).ok());
  EXPECT_EQ(got, value);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StabilityTest,
    ::testing::Values(
        EngineSpec{"leveled", EngineType::kLeveled, AmtPolicy::kIam},
        EngineSpec{"lsa", EngineType::kAmt, AmtPolicy::kLsa},
        EngineSpec{"iam", EngineType::kAmt, AmtPolicy::kIam}),
    [](const ::testing::TestParamInfo<EngineSpec>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace iamdb
