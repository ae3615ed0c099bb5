// Crash-recovery and durability tests: WAL replay, torn-tail tolerance,
// manifest recovery across compactions, obsolete-file GC, and failure
// injection on the CURRENT pointer.
#include <gtest/gtest.h>

#include <map>

#include "core/db.h"
#include "core/filename.h"
#include "env/mem_env.h"
#include "util/random.h"

namespace iamdb {
namespace {

class RecoveryTest : public testing::TestWithParam<EngineType> {
 protected:
  Options MakeOptions() {
    Options options;
    options.env = &env_;
    options.engine = GetParam();
    options.node_capacity = 32 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    options.leveled.max_bytes_level1 = 128 << 10;
    options.leveled.target_file_size = 16 << 10;
    return options;
  }

  void Open() {
    Options options = MakeOptions();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }
  void Close() { db_.reset(); }
  void Reopen() {
    Close();
    Open();
  }

  std::string Get(const std::string& k) {
    std::string value;
    Status s = db_->Get(ReadOptions(), k, &value);
    return s.IsNotFound() ? "NOT_FOUND" : (s.ok() ? value : "ERROR");
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  std::vector<std::string> LiveFiles(FileType want) {
    std::vector<std::string> children, result;
    env_.GetChildren("/db", &children);
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) && type == want) {
        result.push_back(child);
      }
    }
    return result;
  }

  MemEnv env_;
  std::unique_ptr<DB> db_;
};

TEST_P(RecoveryTest, WalOnlyStateSurvivesReopen) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "2").ok());
  Reopen();
  EXPECT_EQ("1", Get("a"));
  EXPECT_EQ("2", Get("b"));
}

TEST_P(RecoveryTest, TornWalTailLosesOnlyTail) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "early", "kept").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "late", "torn").ok());
  Close();

  // Tear the last few bytes off the newest WAL, as a crash mid-write would.
  auto logs = LiveFiles(FileType::kLogFile);
  ASSERT_FALSE(logs.empty());
  std::string newest = "/db/" + logs.back();
  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize(newest, &size).ok());
  ASSERT_TRUE(env_.Truncate(newest, size - 3).ok());

  Open();
  EXPECT_EQ("kept", Get("early"));
  EXPECT_EQ("NOT_FOUND", Get("late"));  // torn record dropped
  // The database remains writable afterwards.
  ASSERT_TRUE(db_->Put(WriteOptions(), "late", "rewritten").ok());
  EXPECT_EQ("rewritten", Get("late"));
}

// One WAL record corrupted mid-log.  By default recovery drops it (with
// whatever follows it in its log block) and keeps the records before it;
// under Options::paranoid_checks, Open refuses with Corruption.
TEST_P(RecoveryTest, CorruptWalRecordHonoursParanoidChecks) {
  Open();
  const std::string value(100, 'w');
  const int kRecords = 100;  // one Put per record, all in one log block
  for (int i = 0; i < kRecords; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  Close();

  auto logs = LiveFiles(FileType::kLogFile);
  ASSERT_EQ(1u, logs.size());
  const std::string wal = "/db/" + logs.back();
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, wal, &contents).ok());
  // Equal-sized records: flip a byte in the middle of the 50th's payload.
  ASSERT_EQ(0u, contents.size() % kRecords);
  const size_t record_size = contents.size() / kRecords;
  contents[(kRecords / 2) * record_size + record_size / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(&env_, contents, wal, false).ok());

  Options options = MakeOptions();
  options.paranoid_checks = true;
  Status s = DB::Open(options, "/db", &db_);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  db_.reset();

  Open();
  for (int i = 0; i < kRecords / 2; i++) {
    EXPECT_EQ(value, Get(Key(i))) << Key(i);
  }
  EXPECT_EQ("NOT_FOUND", Get(Key(kRecords / 2)));
}

TEST_P(RecoveryTest, StateSurvivesCompactionsAndReopen) {
  Open();
  Random64 rnd(5);
  std::map<std::string, std::string> model;
  std::string value(100, 'v');
  for (int i = 0; i < 30000; i++) {
    std::string k = Key(static_cast<int>(rnd.Next() % 10000));
    ASSERT_TRUE(db_->Put(WriteOptions(), k, value).ok());
    model[k] = value;
  }
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  Reopen();
  for (int i = 0; i < 10000; i += 271) {
    std::string k = Key(i);
    EXPECT_EQ(model.count(k) ? value : "NOT_FOUND", Get(k)) << k;
  }
  // Structure is valid after recovery too.
  ASSERT_TRUE(db_->WaitForQuiescence().ok());
  EXPECT_TRUE(db_->CheckInvariants(true).ok());
}

TEST_P(RecoveryTest, ObsoleteFilesRemovedOnReopen) {
  Open();
  std::string value(100, 'v');
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i % 5000), value).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  Close();

  // Plant orphans a crashed compaction could have left behind.
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/999999.mst", false).ok());
  ASSERT_TRUE(
      WriteStringToFile(&env_, "junk", "/db/999998.dbtmp", false).ok());

  Open();
  EXPECT_FALSE(env_.FileExists("/db/999999.mst"));
  EXPECT_FALSE(env_.FileExists("/db/999998.dbtmp"));
  EXPECT_EQ(value, Get(Key(1234)));
}

TEST_P(RecoveryTest, OldManifestsCleanedUp) {
  Open();
  for (int round = 0; round < 4; round++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(round), "v").ok());
    Reopen();  // each open writes a fresh manifest snapshot
  }
  EXPECT_EQ(1u, LiveFiles(FileType::kManifestFile).size());
}

TEST_P(RecoveryTest, MissingCurrentWithCreateIfMissingStartsFresh) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->FlushAll().ok());
  Close();
  ASSERT_TRUE(env_.RemoveFile(CurrentFileName("/db")).ok());
  // Without CURRENT the store's identity is gone; create_if_missing makes
  // a fresh one (the old orphaned table files get GC'd).
  Open();
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_P(RecoveryTest, OpenFailsWithoutCreateIfMissing) {
  Options options = MakeOptions();
  options.create_if_missing = false;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/nonexistent", &db);
  EXPECT_FALSE(s.ok());
}

TEST_P(RecoveryTest, ErrorIfExistsRespected) {
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  Close();
  Options options = MakeOptions();
  options.error_if_exists = true;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/db", &db);
  EXPECT_FALSE(s.ok());
}

TEST_P(RecoveryTest, SyncWalSurvives) {
  Options options = MakeOptions();
  options.sync_wal = true;
  ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  WriteOptions wo;
  wo.sync = true;
  ASSERT_TRUE(db_->Put(wo, "durable", "yes").ok());
  Reopen();
  EXPECT_EQ("yes", Get("durable"));
}

// The process dies with the DB open and sync_wal off: the files as the OS
// holds them at that instant (copied out of the env while the DB still
// runs) must recover every Put that returned, small records and ones that
// span log blocks alike.
TEST_P(RecoveryTest, ProcessCrashKeepsEveryReturnedPut) {
  // One memtable holds every write, so no background job changes the
  // files while they are copied.
  Options options = MakeOptions();
  options.node_capacity = 1 << 20;
  ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  std::map<std::string, std::string> acked;
  Random64 rnd(7);
  for (int i = 0; i < 300; i++) {
    const size_t len = i % 50 == 0 ? 40000 : 1 + rnd.Uniform(400);
    std::string value(len, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
    acked[Key(i)] = value;
  }

  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  ASSERT_TRUE(env_.CreateDir("/crashed").ok());
  for (const std::string& child : children) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, "/db/" + child, &contents).ok());
    ASSERT_TRUE(
        WriteStringToFile(&env_, contents, "/crashed/" + child, false).ok());
  }
  Close();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/crashed", &db).ok());
  for (const auto& [k, v] : acked) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), k, &got).ok()) << k;
    EXPECT_EQ(v, got) << k;
  }
}

TEST_P(RecoveryTest, LargeWalReplay) {
  Open();
  // Write less than one memtable so everything stays in the WAL.
  std::string value(100, 'w');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), value).ok());
  }
  Reopen();
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(value, Get(Key(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, RecoveryTest,
                         testing::Values(EngineType::kLeveled,
                                         EngineType::kAmt),
                         [](const testing::TestParamInfo<EngineType>& info) {
                           return info.param == EngineType::kLeveled
                                      ? "Leveled"
                                      : "Amt";
                         });

}  // namespace
}  // namespace iamdb
