// Failure-injection tests: FaultInjectionEnv starts failing writes after
// a budget is exhausted.  The database must surface errors (not corrupt
// state), keep already-durable data readable, and recover fully once the
// fault clears and the store is reopened.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "core/db.h"
#include "core/filename.h"
#include "core/manifest.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace iamdb {
namespace {

class FaultTest : public testing::TestWithParam<EngineType> {
 protected:
  FaultTest() : faulty_(&mem_) {}

  Options MakeOptions() {
    Options options;
    options.env = &faulty_;
    options.engine = GetParam();
    options.node_capacity = 24 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    options.table.compression = test::TestCompression();
    return options;
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  MemEnv mem_;
  FaultInjectionEnv faulty_;
};

TEST_P(FaultTest, WalWriteFailureSurfacesToCaller) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "before", "ok").ok());

  faulty_.SetWriteBudget(0);
  Status s = db->Put(WriteOptions(), "during", "fails");
  EXPECT_FALSE(s.ok());
  faulty_.Heal();
}

TEST_P(FaultTest, ScheduledSyncFaultSurfacesAndClears) {
  const uint64_t seed = test::TestSeed(11);
  SCOPED_TRACE(test::SeedTrace(seed));
  Options options = MakeOptions();
  options.sync_wal = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  // Every sync fails (one_in=1) but only once; the error must surface on
  // exactly one write, then the store keeps working.
  faulty_.SetErrorSchedule(kFaultSync, seed, /*one_in=*/1, /*max_failures=*/1);
  Status s = db->Put(WriteOptions(), "k1", "v1");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos) << s.ToString();
  faulty_.ClearErrorSchedule();
  EXPECT_TRUE(db->Put(WriteOptions(), "k2", "v2").ok());
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), "k2", &got).ok());
  EXPECT_EQ("v2", got);
}

TEST_P(FaultTest, CompactionFailureDoesNotLoseDurableData) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::string value(100, 'v');
  // Durable base data, fully settled.
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());

  // Now make background writes fail soon and pour more data in.  Writes
  // may start failing (stalls surface bg errors); that's fine — we only
  // require no corruption.
  faulty_.SetWriteBudget(200);
  for (int i = 5000; i < 20000; i++) {
    if (!db->Put(WriteOptions(), Key(i), value).ok()) break;
  }
  faulty_.Heal();
  db.reset();  // "crash" with a possibly failed compaction on disk

  // Reopen on the healed env: all previously durable keys must be intact.
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  for (int i = 0; i < 5000; i += 97) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &got).ok()) << Key(i);
    EXPECT_EQ(value, got);
  }
  // And the store must be fully usable again.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(100000 + i), value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(true).ok());
}

TEST_P(FaultTest, RepeatedFaultCycles) {
  const uint64_t seed = test::TestSeed(3);
  SCOPED_TRACE(test::SeedTrace(seed));
  Random64 rnd(seed);
  std::string value(100, 'v');
  std::map<std::string, std::string> durable;  // settled before each fault
  for (int cycle = 0; cycle < 3; cycle++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    // Verify everything durable so far.
    for (const auto& [k, v] : durable) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok())
          << "cycle " << cycle << " key " << k;
      ASSERT_EQ(v, got);
    }
    // Write a settled batch...
    for (int i = 0; i < 2000; i++) {
      std::string k = Key(cycle * 100000 + i);
      ASSERT_TRUE(db->Put(WriteOptions(), k, value).ok());
      durable[k] = value;
    }
    ASSERT_TRUE(db->FlushAll().ok());
    // ...then inject a fault while writing junk that may be lost.
    faulty_.SetWriteBudget(100 + static_cast<int64_t>(rnd.Next() % 200));
    for (int i = 0; i < 5000; i++) {
      if (!db->Put(WriteOptions(), Key(900000 + i), value).ok()) break;
    }
    faulty_.Heal();
    db.reset();
  }
}

// A background merge whose input read fails: the first streaming refill
// after the engine starts a merge (an AMT flush-down, a leveled level
// compaction) gets an injected read error.  The job fails, the DB reports
// the error, and every acknowledged write reads back after a reopen.
TEST_P(FaultTest, MergeChunkReadFailureLosesNoAcknowledgedWrite) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const uint64_t seed = test::TestSeed(19);
  SCOPED_TRACE(test::SeedTrace(seed));
  Options options = MakeOptions();
  options.background_threads = 1;  // nothing else reads beside the merge
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  SyncPoint* sp = SyncPoint::Instance();
  sp->Reset();
  std::atomic<bool> merging{false};
  std::atomic<int> injected{0};
  sp->SetCallback(GetParam() == EngineType::kAmt
                      ? "AmtEngine::RunFlushNode:Unlocked"
                      : "LeveledEngine::CompactLevel:Unlocked",
                  [&](void*) { merging = true; });
  sp->SetCallback("SequenceReader::Refill:BeforeRead", [&](void*) {
    if (merging.exchange(false) && injected++ == 0) {
      faulty_.SetErrorSchedule(kFaultRead, seed, /*one_in=*/1,
                               /*max_failures=*/1);
    }
  });
  sp->EnableProcessing();

  Random64 rnd(seed);
  const std::string value(100, 'v');
  std::map<std::string, std::string> acked;
  Status s;
  for (int i = 0; i < 40000 && injected == 0; i++) {
    const std::string k = Key(static_cast<int>(rnd.Next() % 8000));
    const std::string v = value + std::to_string(i);
    s = db->Put(WriteOptions(), k, v);
    if (!s.ok()) break;  // a write stalled behind the failed job
    acked[k] = v;
  }
  ASSERT_EQ(1, injected.load()) << s.ToString();
  // The failed job is the DB's background error from here on.
  s = db->FlushAll();
  sp->Reset();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("injected")) << s.ToString();
  // Writes that raced the failure may or may not have been acknowledged;
  // the ones that were must survive.
  for (int i = 0; i < 100; i++) {
    const std::string k = Key(100000 + i);
    if (db->Put(WriteOptions(), k, value).ok()) acked[k] = value;
  }
  faulty_.ClearErrorSchedule();
  db.reset();

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (const auto& [k, v] : acked) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok()) << k;
    ASSERT_EQ(v, got) << k;
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(true).ok());
#endif  // IAMDB_SYNC_POINTS
}

// A background merge whose output write fails: the node file's blocks sit
// in its 64 KB write buffer until Finish pushes them, and that push gets an
// injected error.  Foreground writes wait at the WAL append while the fault
// is armed, so the job's push is the write that fails.  The job fails, the
// DB reports the error, and every acknowledged write reads back after a
// reopen.
TEST_P(FaultTest, BufferedTableWriteFailureLosesNoAcknowledgedWrite) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const uint64_t seed = test::TestSeed(23);
  SCOPED_TRACE(test::SeedTrace(seed));
  Options options = MakeOptions();
  options.background_threads = 1;  // one job at a time
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  SyncPoint* sp = SyncPoint::Instance();
  sp->Reset();
  std::atomic<bool> armed{false};
  std::atomic<bool> job_done{false};
  sp->SetCallback(GetParam() == EngineType::kAmt
                      ? "AmtEngine::RunFlushNode:Unlocked"
                      : "LeveledEngine::CompactLevel:Unlocked",
                  [&](void*) {
                    if (!armed.exchange(true)) {
                      faulty_.SetErrorSchedule(kFaultWrite, seed,
                                               /*one_in=*/1,
                                               /*max_failures=*/1);
                    }
                  });
  auto job_finished = [&](void*) {
    if (armed) job_done = true;
  };
  sp->SetCallback("DBImpl::BackgroundCall:RanJob", job_finished);
  sp->SetCallback("DBImpl::BackgroundCall:NoWork", job_finished);
  sp->SetCallback("DBImpl::Write:BeforeWalAppend", [&](void*) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (armed && !job_done && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  sp->EnableProcessing();

  Random64 rnd(seed);
  const std::string value(100, 'v');
  std::map<std::string, std::string> acked;
  Status s;
  for (int i = 0; i < 40000 && !armed; i++) {
    const std::string k = Key(static_cast<int>(rnd.Next() % 8000));
    const std::string v = value + std::to_string(i);
    s = db->Put(WriteOptions(), k, v);
    if (!s.ok()) break;  // a write stalled behind the failed job
    acked[k] = v;
  }
  ASSERT_TRUE(armed.load()) << s.ToString();
  s = db->FlushAll();
  EXPECT_TRUE(job_done.load());
  sp->Reset();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("injected")) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find(".mst")) << s.ToString();
  for (int i = 0; i < 100; i++) {
    const std::string k = Key(100000 + i);
    if (db->Put(WriteOptions(), k, value).ok()) acked[k] = value;
  }
  faulty_.ClearErrorSchedule();
  db.reset();

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (const auto& [k, v] : acked) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok()) << k;
    ASSERT_EQ(v, got) << k;
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(true).ok());
#endif  // IAMDB_SYNC_POINTS
}

// An empty placeholder node (an L1 node that flushed into its children)
// gets a new file on its next append.  If writing that file fails, the file
// must be gone at once, not left for the next open's clean-up: the table
// files on disk are exactly the live version's.
TEST(PlaceholderFaultTest, FailedFirstFileLeavesNoTableFile) {
  MemEnv mem;
  FaultInjectionEnv faulty(&mem);
  Options options;
  options.env = &faulty;
  options.engine = EngineType::kAmt;
  options.node_capacity = 24 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.background_threads = 1;
  options.table.compression = test::TestCompression();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  // Overwrite until the live tree holds an L1 placeholder.
  const std::string value(100, 'v');
  Random64 rnd(17);
  RecoveredState state;
  std::optional<std::string> placeholder_lo;
  for (int round = 0; round < 50 && !placeholder_lo; round++) {
    for (int i = 0; i < 500; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d",
               static_cast<int>(rnd.Next() % 4000));
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(RecoverManifest(&faulty, "/db", &state).ok());
    if (state.nodes.empty()) continue;
    for (const NodeEdit& node : state.nodes[0]) {
      if (node.file_number == 0) placeholder_lo = node.range_lo;
    }
  }
  ASSERT_TRUE(placeholder_lo.has_value());

  // One record in the placeholder's range: the memtable flush appends to
  // that node alone.  Writes fail from here on; the memtable switch writes
  // nothing, so the first failing write is the data block that the new
  // file's Finish writes.
  ASSERT_TRUE(db->Put(WriteOptions(), *placeholder_lo, value).ok());
  faulty.SetErrorSchedule(kFaultWrite, /*seed=*/1, /*one_in=*/1);
  Status s = db->FlushAll();
  EXPECT_NE(std::string::npos, s.ToString().find(".mst")) << s.ToString();

  ASSERT_TRUE(RecoverManifest(&faulty, "/db", &state).ok());
  std::set<uint64_t> live;
  for (const auto& level : state.nodes) {
    for (const NodeEdit& node : level) live.insert(node.file_number);
  }
  std::vector<std::string> children;
  ASSERT_TRUE(faulty.GetChildren("/db", &children).ok());
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      EXPECT_EQ(1u, live.count(number)) << child << " is not live";
    }
  }
  faulty.Heal();
}

// Foreground scans on all three engines: a block read that fails ends the
// scan with its error.  Parameter: (engine, AMT policy).
class ScanFaultTest
    : public testing::TestWithParam<std::tuple<EngineType, AmtPolicy>> {
 protected:
  ScanFaultTest() : faulty_(&mem_) {}

  Options MakeOptions() {
    Options options;
    options.env = &faulty_;
    options.engine = std::get<0>(GetParam());
    options.amt.policy = std::get<1>(GetParam());
    options.node_capacity = 24 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 96 << 10;
    options.leveled.target_file_size = 12 << 10;
    // Uncompressed, so a record's bytes can be found in its table file.
    options.table.compression = CompressionType::kNone;
    options.background_threads = 1;
    return options;
  }

  static std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  static std::string Value(int i, const char* version) {
    return std::string(version) + "-" + Key(i) + "-" + std::string(80, 'v');
  }

  // Table files of /db and their contents.
  std::map<std::string, std::string> TableFiles() {
    std::map<std::string, std::string> files;
    std::vector<std::string> children;
    EXPECT_TRUE(mem_.GetChildren("/db", &children).ok());
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        EXPECT_TRUE(
            ReadFileToString(&mem_, "/db/" + child, &files["/db/" + child])
                .ok());
      }
    }
    return files;
  }

  MemEnv mem_;
  FaultInjectionEnv faulty_;
};

// Every key is written twice, the second version flushed into a newer
// sequence (an AMT append, a newer leveled L0 file) while the first stays
// in an older one.  A flipped byte in the block that holds one key's new
// version must stop a scan there with Corruption, and a point read of the
// key must fail too: neither may fall back to the key's older version.
TEST_P(ScanFaultTest, CorruptNewerBlockNeverSurfacesOlderVersion) {
  const int kKeys = 100;
  const int kVictim = 50;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    for (const char* version : {"old", "new"}) {
      for (int i = 0; i < kKeys; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i, version)).ok());
      }
      ASSERT_TRUE(db->FlushAll().ok());
    }
    ASSERT_TRUE(db->WaitForQuiescence().ok());
  }

  // Both versions of the victim sit in table files; flip a byte inside its
  // new value (closed DB, so the reopened one reads the changed bytes).
  const std::string old_value = Value(kVictim, "old");
  const std::string new_value = Value(kVictim, "new");
  bool old_on_disk = false;
  int corrupted = 0;
  for (auto& [fname, contents] : TableFiles()) {
    old_on_disk |= contents.find(old_value) != std::string::npos;
    size_t pos = contents.find(new_value);
    if (pos == std::string::npos) continue;
    contents[pos + new_value.size() / 2] ^= 0x10;
    ASSERT_TRUE(WriteStringToFile(&mem_, contents, fname, false).ok());
    corrupted++;
  }
  ASSERT_TRUE(old_on_disk) << "the older version was compacted away";
  ASSERT_EQ(1, corrupted);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  int yielded = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), yielded++) {
    ASSERT_EQ(Key(yielded), iter->key().ToString());
    ASSERT_EQ(Value(yielded, "new"), iter->value().ToString());
  }
  EXPECT_LT(yielded, kVictim + 1);
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();

  std::string got;
  Status s = db->Get(ReadOptions(), Key(kVictim), &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString() << " value " << got;
}

// A foreground scan whose read-ahead refill fails: the scan ends with the
// injected IOError after yielding only correct keys, the DB's background
// error stays clear, and the next scan reads everything.
TEST_P(ScanFaultTest, ForegroundRefillFaultEndsScan) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const uint64_t seed = test::TestSeed(23);
  SCOPED_TRACE(test::SeedTrace(seed));
  const int kKeys = 3000;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i), Value(i, "v")).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->WaitForQuiescence().ok());
  }
  // Reopen: a cold cache, so the scan reads the device.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());

  SyncPoint* sp = SyncPoint::Instance();
  sp->Reset();
  std::atomic<bool> arm{false};
  std::atomic<int> injected{0};
  sp->SetCallback("SequenceReader::Refill:BeforeRead", [&](void*) {
    if (arm.exchange(false)) {
      injected++;
      faulty_.SetErrorSchedule(kFaultRead, seed, /*one_in=*/1,
                               /*max_failures=*/1);
    }
  });
  sp->EnableProcessing();

  // Arm the fault once the scan is well under way: the next refill fails.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  int yielded = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), yielded++) {
    ASSERT_EQ(Key(yielded), iter->key().ToString());
    ASSERT_EQ(Value(yielded, "v"), iter->value().ToString());
    if (yielded == kKeys / 3) arm = true;
  }
  const Status s = iter->status();
  iter.reset();
  sp->Reset();
  faulty_.ClearErrorSchedule();
  ASSERT_EQ(1, injected.load());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("injected")) << s.ToString();
  EXPECT_GT(yielded, kKeys / 3);
  EXPECT_LT(yielded, kKeys);

  // A foreground read error is the reader's alone: writes, flushes and
  // compactions carry on, and the next scan sees every key.
  ASSERT_TRUE(db->Put(WriteOptions(), Key(kKeys), Value(kKeys, "v")).ok());
  EXPECT_TRUE(db->FlushAll().ok());
  iter.reset(db->NewIterator(ReadOptions()));
  yielded = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), yielded++) {
    ASSERT_EQ(Key(yielded), iter->key().ToString());
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(kKeys + 1, yielded);
#endif  // IAMDB_SYNC_POINTS
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ScanFaultTest,
    testing::Values(std::make_tuple(EngineType::kLeveled, AmtPolicy::kIam),
                    std::make_tuple(EngineType::kAmt, AmtPolicy::kLsa),
                    std::make_tuple(EngineType::kAmt, AmtPolicy::kIam)),
    [](const testing::TestParamInfo<std::tuple<EngineType, AmtPolicy>>& i) {
      if (std::get<0>(i.param) == EngineType::kLeveled) return "Leveled";
      return std::get<1>(i.param) == AmtPolicy::kLsa ? "Lsa" : "Iam";
    });

INSTANTIATE_TEST_SUITE_P(Engines, FaultTest,
                         testing::Values(EngineType::kLeveled,
                                         EngineType::kAmt),
                         [](const testing::TestParamInfo<EngineType>& info) {
                           return info.param == EngineType::kLeveled
                                      ? "Leveled"
                                      : "Amt";
                         });

}  // namespace
}  // namespace iamdb
