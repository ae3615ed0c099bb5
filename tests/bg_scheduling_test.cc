// Background scheduling tests: the event-driven scheduler wakes a worker
// only for work it can start (docs/CONCURRENCY.md, "Two-lane background
// scheduling").  Counts come from two sync points in DBImpl::BackgroundCall:
// RanJob (the worker ran a job) and NoWork (it found nothing runnable).
//
//  * NoSpinTest: a seeded overwrite-heavy ingest on every engine wakes
//    workers at most as often for nothing as for a job — a flush lane
//    that rescheduled itself while its target was busy in a merge used to
//    wake hundreds of times per job.
//  * BlockedFlushTest: an AMT merge parked on an L1 node blocks the
//    memtable flush behind it; the flush lane must stay asleep while the
//    merge runs, wake when it finishes (FlushAll returns, contents match
//    the model), and deliver the merge's I/O error to the stalled writer
//    when it fails instead.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "core/db.h"
#include "core/tree_engine.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace iamdb {
namespace {

constexpr char kRanJob[] = "DBImpl::BackgroundCall:RanJob";
constexpr char kNoWork[] = "DBImpl::BackgroundCall:NoWork";

struct EngineConfig {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

constexpr EngineConfig kEngines[] = {
    {EngineType::kLeveled, AmtPolicy::kLsa, "Leveled"},
    {EngineType::kAmt, AmtPolicy::kLsa, "Lsa"},
    {EngineType::kAmt, AmtPolicy::kIam, "Iam"},
};

#ifdef IAMDB_SYNC_POINTS
// Helpers for the sync-point suites below (compiled out without them).
Options MakeOptions(const EngineConfig& cfg, Env* env) {
  Options options;
  options.env = env;
  options.engine = cfg.engine;
  options.amt.policy = cfg.policy;
  options.node_capacity = 16 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.background_threads = 2;
  options.leveled.max_bytes_level1 = 64 << 10;
  options.leveled.target_file_size = 8 << 10;
  return options;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%06llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string Value(uint64_t put_index) {
  std::string value = "v" + std::to_string(put_index);
  value.resize(100, '.');
  return value;
}

// One uniform overwrite over `key_space` keys, mirrored into `model` only
// when the DB acknowledged it.
Status PutRandom(DB* db, Random64* rnd, uint64_t key_space, uint64_t index,
                 std::map<std::string, std::string>* model) {
  std::string key = Key(rnd->Next() % key_space);
  std::string value = Value(index);
  Status s = db->Put(WriteOptions(), key, value);
  if (s.ok()) (*model)[key] = value;
  return s;
}

void ExpectMatchesModel(DB* db,
                        const std::map<std::string, std::string>& model) {
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end()) << "extra key " << it->key().ToString();
    ASSERT_EQ(expected->first, it->key().ToString());
    ASSERT_EQ(expected->second, it->value().ToString());
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(expected, model.end()) << "missing key " << expected->first;
}
#endif  // IAMDB_SYNC_POINTS

class NoSpinTest : public testing::TestWithParam<EngineConfig> {};

TEST_P(NoSpinTest, IdleWakeupsNeverOutnumberJobs) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const uint64_t seed = test::TestSeed(5);
  SCOPED_TRACE(test::SeedTrace(seed));
  SyncPoint::Instance()->Reset();
  MemEnv env;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(GetParam(), &env), "/db", &db).ok());
  SyncPoint::Instance()->EnableProcessing();

  Random64 rnd(seed);
  std::map<std::string, std::string> model;
  for (uint64_t i = 0; i < 20000; i++) {
    ASSERT_TRUE(PutRandom(db.get(), &rnd, 2000, i, &model).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  const uint64_t ran = SyncPoint::Instance()->HitCount(kRanJob);
  const uint64_t idle = SyncPoint::Instance()->HitCount(kNoWork);
  SyncPoint::Instance()->Reset();

  EXPECT_GT(ran, 0u);
  EXPECT_LE(idle, ran) << "ran " << ran << " jobs, " << idle
                       << " idle wakeups";
  ExpectMatchesModel(db.get(), model);
  EXPECT_TRUE(db->CheckInvariants(true).ok());
#endif
}

INSTANTIATE_TEST_SUITE_P(Engines, NoSpinTest, testing::ValuesIn(kEngines),
                         [](const testing::TestParamInfo<EngineConfig>& info) {
                           return std::string(info.param.name);
                         });

// Parks the first compaction-lane merge of an L1 node (version index 0) at
// "AmtEngine::RunFlushNode:Unlocked" — busy marks held, DB mutex free —
// until Release().  Flush-lane prerequisite jobs pass through (the sync
// point's argument carries the job's lane), so the parked job is one the
// flush lane must wait for.
class MergeParker {
 public:
  MergeParker() {
    SyncPoint::Instance()->SetCallback(
        "AmtEngine::RunFlushNode:Unlocked", [this](void* arg) {
          const auto& [level, lane] =
              *static_cast<std::pair<int, TreeEngine::WorkLane>*>(arg);
          if (level != 0 || lane != TreeEngine::WorkLane::kCompaction) return;
          std::unique_lock<std::mutex> l(mu_);
          if (parked_ || released_) return;
          parked_ = true;
          cv_.notify_all();
          cv_.wait(l, [this] { return released_; });
        });
  }
  ~MergeParker() {
    SyncPoint::Instance()->ClearCallback("AmtEngine::RunFlushNode:Unlocked");
    Release();
  }

  bool WaitParked(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, timeout, [this] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

#ifdef IAMDB_SYNC_POINTS
// Loads a two-level tree, parks an L1 merge under a writer overwriting
// the whole key space, and waits until that writer hard-stalls on the
// flush the parked merge blocks.  Then checks the flush lane sleeps
// through a ~100 ms park and, once released (failing the merge's I/O
// first when `fail_merge`), that the writer sees the outcome.
void RunBlockedFlush(bool fail_merge) {
  constexpr uint64_t kKeySpace = 3000;
  const uint64_t seed = test::TestSeed(9);
  SCOPED_TRACE(test::SeedTrace(seed));
  SyncPoint::Instance()->Reset();
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  const Options options = MakeOptions(kEngines[2], &env);
  MergeParker parker;  // outlives the DB, whose workers may hit it
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  Random64 rnd(seed);
  std::map<std::string, std::string> model;
  uint64_t index = 0;
  for (; index < 2 * kKeySpace; index++) {
    ASSERT_TRUE(PutRandom(db.get(), &rnd, kKeySpace, index, &model).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  std::string levels;
  ASSERT_TRUE(db->GetProperty("iamdb.levels", &levels));
  ASSERT_NE(levels.find("L2:"), std::string::npos) << levels;

  SyncPoint::Instance()->EnableProcessing();
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> writer_done{false};
  Status writer_status;
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire) && acked < 200000) {
      writer_status = PutRandom(db.get(), &rnd, kKeySpace, index++, &model);
      if (!writer_status.ok()) break;
      acked.fetch_add(1, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  const bool parked = parker.WaitParked(std::chrono::seconds(30));
  // The writer stalls once the imm it rotated cannot flush and its new
  // memtable fills: no acknowledged write for a while.
  bool stalled = false;
  for (int i = 0; parked && i < 300 && !stalled; i++) {
    uint64_t before = acked.load(std::memory_order_acquire);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stalled = !writer_done.load(std::memory_order_acquire) &&
              acked.load(std::memory_order_acquire) == before;
  }
  const uint64_t idle_before = SyncPoint::Instance()->HitCount(kNoWork);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t idle_during =
      SyncPoint::Instance()->HitCount(kNoWork) - idle_before;
  const bool still_stalled =
      !writer_done.load(std::memory_order_acquire);

  stop.store(true, std::memory_order_release);
  if (fail_merge) env.SetFilesystemActive(false);
  parker.Release();
  // A writer stuck past its stall would hang join(); bound the wait so a
  // lost wakeup fails the test instead.
  for (int i = 0; i < 1000 && !writer_done.load(); i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!writer_done.load()) {
    ADD_FAILURE() << "stalled writer never woke";
    std::abort();  // the writer still uses the DB; no clean unwind
  }
  writer.join();
  ASSERT_TRUE(parked) << "no compaction-lane L1 merge ran";
  ASSERT_TRUE(stalled) << "writer never stalled behind the parked merge";
  EXPECT_TRUE(still_stalled);
  EXPECT_LE(idle_during, 1u) << "flush lane woke for nothing while the "
                                "merge was parked";

  if (fail_merge) {
    EXPECT_TRUE(writer_status.IsIOError()) << writer_status.ToString();
    EXPECT_TRUE(db->FlushAll().IsIOError());
    SyncPoint::Instance()->Reset();
    db.reset();
    env.Heal();
    // Every acknowledged write is in a WAL or a table: reopening
    // recovers exactly the model.
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  } else {
    EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();
    ASSERT_TRUE(db->FlushAll().ok());
    SyncPoint::Instance()->Reset();
    EXPECT_TRUE(db->CheckInvariants(true).ok());
  }
  ExpectMatchesModel(db.get(), model);
}
#endif  // IAMDB_SYNC_POINTS

TEST(BlockedFlushTest, FlushLaneSleepsUntilMergeCompletes) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  RunBlockedFlush(/*fail_merge=*/false);
#endif
}

TEST(BlockedFlushTest, FailedMergeErrorReachesStalledWriter) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  RunBlockedFlush(/*fail_merge=*/true);
#endif
}

}  // namespace
}  // namespace iamdb
