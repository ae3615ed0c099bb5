// Tests for the Env abstraction: MemEnv semantics, PosixEnv round trips,
// CountingEnv instrumentation and the device model arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "env/buffered_writable_file.h"
#include "env/counting_env.h"
#include "env/env.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "stats/amp_stats.h"
#include "stats/device_model.h"
#include "stats/io_stats.h"

namespace iamdb {
namespace {

class MemEnvTest : public testing::Test {
 protected:
  MemEnv env_;
};

TEST_F(MemEnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteStringToFile(&env_, "hello world", "/dir/f", false).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/dir/f", &contents).ok());
  EXPECT_EQ("hello world", contents);
}

TEST_F(MemEnvTest, MissingFileErrors) {
  std::unique_ptr<SequentialFile> seq;
  EXPECT_TRUE(env_.NewSequentialFile("/nope", &seq).IsNotFound());
  std::unique_ptr<RandomAccessFile> ra;
  EXPECT_TRUE(env_.NewRandomAccessFile("/nope", &ra).IsNotFound());
  EXPECT_FALSE(env_.FileExists("/nope"));
  uint64_t size;
  EXPECT_FALSE(env_.GetFileSize("/nope", &size).ok());
  EXPECT_FALSE(env_.RemoveFile("/nope").ok());
}

TEST_F(MemEnvTest, AppendableFileGrows) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_.NewAppendableFile("/f", &f).ok());
  ASSERT_TRUE(f->Append("abc").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_.NewAppendableFile("/f", &f).ok());
  ASSERT_TRUE(f->Append("def").ok());
  ASSERT_TRUE(f->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/f", &contents).ok());
  EXPECT_EQ("abcdef", contents);
}

TEST_F(MemEnvTest, WritableFileTruncatesExisting) {
  ASSERT_TRUE(WriteStringToFile(&env_, "long old contents", "/f", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, "new", "/f", false).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/f", &contents).ok());
  EXPECT_EQ("new", contents);
}

TEST_F(MemEnvTest, RandomAccessReads) {
  ASSERT_TRUE(WriteStringToFile(&env_, "0123456789", "/f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile("/f", &f).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ("3456", result.ToString());
  // Past-EOF reads return short/empty results, not errors.
  ASSERT_TRUE(f->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ("89", result.ToString());
  ASSERT_TRUE(f->Read(20, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

// MemEnv does not override ReadV, so this exercises the base-class
// fallback: one Read per segment, first error wins, short/past-EOF
// segments come back empty without failing the batch.
TEST_F(MemEnvTest, ReadVDefaultFallbackMatchesReads) {
  ASSERT_TRUE(
      WriteStringToFile(&env_, "0123456789abcdef", "/f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_.NewRandomAccessFile("/f", &f).ok());

  char s0[4], s1[4], s2[8], s3[4];
  ReadRequest reqs[4];
  reqs[0] = {0, 4, s0, Slice(), Status::OK()};
  reqs[1] = {4, 4, s1, Slice(), Status::OK()};    // contiguous with [0]
  reqs[2] = {12, 8, s2, Slice(), Status::OK()};   // crosses EOF: short
  reqs[3] = {100, 4, s3, Slice(), Status::OK()};  // fully past EOF: empty
  ASSERT_TRUE(f->ReadV(reqs, 4).ok());
  EXPECT_EQ("0123", reqs[0].result.ToString());
  EXPECT_EQ("4567", reqs[1].result.ToString());
  EXPECT_EQ("cdef", reqs[2].result.ToString());
  EXPECT_TRUE(reqs[3].result.empty());
  for (const ReadRequest& r : reqs) EXPECT_TRUE(r.status.ok());
}

TEST_F(MemEnvTest, GetChildrenListsOnlyDirectEntries) {
  ASSERT_TRUE(WriteStringToFile(&env_, "x", "/db/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, "x", "/db/b", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, "x", "/db/sub/c", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, "x", "/other/d", false).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db", &children).ok());
  EXPECT_EQ(2u, children.size());
}

TEST_F(MemEnvTest, RenameReplacesTarget) {
  ASSERT_TRUE(WriteStringToFile(&env_, "src", "/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, "dst", "/b", false).ok());
  ASSERT_TRUE(env_.RenameFile("/a", "/b").ok());
  EXPECT_FALSE(env_.FileExists("/a"));
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/b", &contents).ok());
  EXPECT_EQ("src", contents);
}

TEST_F(MemEnvTest, TotalBytesTracksContents) {
  EXPECT_EQ(0u, env_.TotalBytes());
  ASSERT_TRUE(WriteStringToFile(&env_, std::string(100, 'x'), "/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(&env_, std::string(50, 'y'), "/b", false).ok());
  EXPECT_EQ(150u, env_.TotalBytes());
  ASSERT_TRUE(env_.RemoveFile("/a").ok());
  EXPECT_EQ(50u, env_.TotalBytes());
}

TEST_F(MemEnvTest, TruncateShortensFile) {
  ASSERT_TRUE(WriteStringToFile(&env_, "0123456789", "/f", false).ok());
  ASSERT_TRUE(env_.Truncate("/f", 4).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/f", &contents).ok());
  EXPECT_EQ("0123", contents);
  // Truncating beyond size is a no-op.
  ASSERT_TRUE(env_.Truncate("/f", 100).ok());
  ASSERT_TRUE(ReadFileToString(&env_, "/f", &contents).ok());
  EXPECT_EQ("0123", contents);
}

class PosixEnvTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("iamdb_env_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    env_ = Env::Default();
    ASSERT_TRUE(env_->CreateDir(dir_.string()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  Env* env_;
};

TEST_F(PosixEnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteStringToFile(env_, "posix data", Path("f"), true).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, Path("f"), &contents).ok());
  EXPECT_EQ("posix data", contents);
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize(Path("f"), &size).ok());
  EXPECT_EQ(10u, size);
}

TEST_F(PosixEnvTest, AppendableAndRandomAccess) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env_->NewAppendableFile(Path("f"), &w).ok());
  ASSERT_TRUE(w->Append("hello ").ok());
  ASSERT_TRUE(w->Close().ok());
  ASSERT_TRUE(env_->NewAppendableFile(Path("f"), &w).ok());
  ASSERT_TRUE(w->Append("world").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("f"), &r).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(r->Read(6, 5, &result, scratch).ok());
  EXPECT_EQ("world", result.ToString());
}

// PosixEnv overrides ReadV with preadv over contiguous runs; results must
// be indistinguishable from per-segment pread, including short reads at
// EOF in the middle of a run.
TEST_F(PosixEnvTest, ReadVCoalescedAndScattered) {
  std::string payload;
  for (int i = 0; i < 256; i++) payload.push_back(static_cast<char>(i));
  ASSERT_TRUE(WriteStringToFile(env_, payload, Path("f"), true).ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("f"), &r).ok());

  char scratch[5][64];
  ReadRequest reqs[5];
  reqs[0] = {0, 16, scratch[0], Slice(), Status::OK()};
  reqs[1] = {16, 16, scratch[1], Slice(), Status::OK()};   // run with [0]
  reqs[2] = {32, 16, scratch[2], Slice(), Status::OK()};   // run with [1]
  reqs[3] = {128, 32, scratch[3], Slice(), Status::OK()};  // gap: new run
  reqs[4] = {240, 64, scratch[4], Slice(), Status::OK()};  // short at EOF
  ASSERT_TRUE(r->ReadV(reqs, 5).ok());
  EXPECT_EQ(payload.substr(0, 16), reqs[0].result.ToString());
  EXPECT_EQ(payload.substr(16, 16), reqs[1].result.ToString());
  EXPECT_EQ(payload.substr(32, 16), reqs[2].result.ToString());
  EXPECT_EQ(payload.substr(128, 32), reqs[3].result.ToString());
  EXPECT_EQ(payload.substr(240, 16), reqs[4].result.ToString());
  for (const ReadRequest& req : reqs) EXPECT_TRUE(req.status.ok());
}

// More contiguous segments than one preadv can carry (kMaxIov = 64): the
// implementation must chain calls without dropping or reordering bytes.
TEST_F(PosixEnvTest, ReadVRunLongerThanIovLimit) {
  std::string payload(100 * 8, 'x');
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<char>('a' + (i / 8) % 26);
  }
  ASSERT_TRUE(WriteStringToFile(env_, payload, Path("f"), true).ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("f"), &r).ok());

  std::vector<std::array<char, 8>> scratch(100);
  std::vector<ReadRequest> reqs(100);
  for (size_t i = 0; i < 100; i++) {
    reqs[i] = {i * 8, 8, scratch[i].data(), Slice(), Status::OK()};
  }
  ASSERT_TRUE(r->ReadV(reqs.data(), reqs.size()).ok());
  for (size_t i = 0; i < 100; i++) {
    EXPECT_EQ(payload.substr(i * 8, 8), reqs[i].result.ToString()) << i;
  }
}

TEST_F(PosixEnvTest, GetChildrenAndRemove) {
  ASSERT_TRUE(WriteStringToFile(env_, "1", Path("a"), false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "2", Path("b"), false).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_.string(), &children).ok());
  EXPECT_EQ(2u, children.size());
  ASSERT_TRUE(env_->RemoveFile(Path("a")).ok());
  EXPECT_FALSE(env_->FileExists(Path("a")));
}

TEST_F(PosixEnvTest, NowMicrosMonotonic) {
  uint64_t t1 = env_->NowMicros();
  env_->SleepForMicroseconds(1000);
  uint64_t t2 = env_->NowMicros();
  EXPECT_GE(t2, t1 + 500);
}

TEST(CountingEnvTest, CountsReadsWritesSyncs) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);

  ASSERT_TRUE(WriteStringToFile(&env, std::string(1000, 'x'), "/f", true).ok());
  IoStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(1000u, snap.bytes_written);
  EXPECT_EQ(1u, snap.write_ops);
  EXPECT_EQ(1u, snap.fsyncs);

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());
  char scratch[128];
  Slice result;
  ASSERT_TRUE(r->Read(0, 100, &result, scratch).ok());
  ASSERT_TRUE(r->Read(500, 100, &result, scratch).ok());
  snap = stats.Snapshot();
  EXPECT_EQ(200u, snap.bytes_read);
  EXPECT_EQ(2u, snap.read_ops);
}

// A vectored read is charged one read_op ("seek") per contiguous run, not
// per segment — this is the signal the MultiGet coalescing test asserts on
// (fewer device reads for the same blocks).  Runs of 2+ segments are the
// coalescing gauges.
TEST(CountingEnvTest, ReadVChargesOneOpPerContiguousRun) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(4096, 'x'), "/f", false).ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());

  // Three segments, two contiguous + one after a gap: 2 runs, 3 * 64 bytes.
  char scratch[3][64];
  ReadRequest reqs[3];
  reqs[0] = {0, 64, scratch[0], Slice(), Status::OK()};
  reqs[1] = {64, 64, scratch[1], Slice(), Status::OK()};
  reqs[2] = {1024, 64, scratch[2], Slice(), Status::OK()};
  {
    OpIoScope scope;
    ASSERT_TRUE(r->ReadV(reqs, 3).ok());
    EXPECT_EQ(2u, scope.context().seeks);
    EXPECT_EQ(192u, scope.context().bytes_read);
  }
  IoStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(2u, snap.read_ops);
  EXPECT_EQ(192u, snap.bytes_read);
  EXPECT_EQ(1u, stats.coalesced_reads());
  EXPECT_EQ(2u, stats.coalesced_blocks());

  // A lone segment is one seek and coalesces nothing.
  ASSERT_TRUE(r->ReadV(reqs + 2, 1).ok());
  EXPECT_EQ(3u, stats.Snapshot().read_ops);
  EXPECT_EQ(1u, stats.coalesced_reads());
  EXPECT_EQ(2u, stats.coalesced_blocks());
}

// A failed segment charges nothing and splits its run: the segments after
// it start a new seek.  The expected counts are computed from the
// per-segment outcomes of a seeded kFaultRead schedule.
TEST(CountingEnvTest, FailedSegmentSplitsRun) {
  MemEnv base;
  FaultInjectionEnv fault(&base);
  IoStats stats;
  CountingEnv env(&fault, &stats);
  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(1024, 'x'), "/f", false).ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());

  int splits = 0;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    fault.SetErrorSchedule(kFaultRead, seed, /*one_in=*/3);
    std::vector<std::array<char, 16>> scratch(16);
    std::vector<ReadRequest> reqs(16);
    for (size_t i = 0; i < 16; i++) {
      reqs[i] = {i * 16, 16, scratch[i].data(), Slice(), Status::OK()};
    }
    const IoStatsSnapshot before = stats.Snapshot();
    const uint64_t runs_before = stats.coalesced_reads();
    const uint64_t blocks_before = stats.coalesced_blocks();
    r->ReadV(reqs.data(), reqs.size());

    uint64_t seeks = 0, bytes = 0, runs = 0, blocks = 0;
    size_t run = 0;
    for (size_t i = 0; i <= reqs.size(); i++) {
      if (i < reqs.size() && reqs[i].status.ok()) {
        if (run == 0) seeks++;
        run++;
        bytes += 16;
        continue;
      }
      if (i < reqs.size() && run > 0 && i + 1 < reqs.size() &&
          reqs[i + 1].status.ok()) {
        splits++;
      }
      if (run >= 2) {
        runs++;
        blocks += run;
      }
      run = 0;
    }
    const IoStatsSnapshot io = stats.Snapshot() - before;
    EXPECT_EQ(seeks, io.read_ops) << seed;
    EXPECT_EQ(bytes, io.bytes_read) << seed;
    EXPECT_EQ(runs, stats.coalesced_reads() - runs_before) << seed;
    EXPECT_EQ(blocks, stats.coalesced_blocks() - blocks_before) << seed;
  }
  fault.ClearErrorSchedule();
  EXPECT_GT(splits, 0);
}

TEST(CountingEnvTest, OpIoScopeCapturesPerOperationIo) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  ASSERT_TRUE(WriteStringToFile(&env, std::string(4096, 'x'), "/f", false).ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());
  char scratch[4096];
  Slice result;
  {
    OpIoScope scope;
    ASSERT_TRUE(r->Read(0, 1024, &result, scratch).ok());
    ASSERT_TRUE(r->Read(2048, 512, &result, scratch).ok());
    EXPECT_EQ(2u, scope.context().seeks);
    EXPECT_EQ(1536u, scope.context().bytes_read);
  }
  // Outside any scope, recording is a no-op (must not crash).
  ASSERT_TRUE(r->Read(0, 16, &result, scratch).ok());
}

TEST(CountingEnvTest, NestedScopesAreIndependent) {
  MemEnv base;
  IoStats stats;
  CountingEnv env(&base, &stats);
  ASSERT_TRUE(WriteStringToFile(&env, std::string(100, 'x'), "/f", false).ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());
  char scratch[100];
  Slice result;

  OpIoScope outer;
  ASSERT_TRUE(r->Read(0, 10, &result, scratch).ok());
  {
    OpIoScope inner;
    ASSERT_TRUE(r->Read(0, 20, &result, scratch).ok());
    EXPECT_EQ(1u, inner.context().seeks);
    EXPECT_EQ(20u, inner.context().bytes_read);
  }
  // Inner scope's IO is not double counted into outer.
  EXPECT_EQ(1u, outer.context().seeks);
  EXPECT_EQ(10u, outer.context().bytes_read);
}

TEST(DeviceModelTest, HddSeeksDominate) {
  DeviceModel hdd(DeviceProfile::HDD());
  // 100 seeks of 4KB each: seek cost should dwarf transfer cost.
  double micros = hdd.ReadMicros(100, 100 * 4096);
  EXPECT_GT(micros, 100 * 8000.0 * 0.99);
  EXPECT_LT(micros, 100 * 8000.0 * 1.1);
}

TEST(DeviceModelTest, SsdBandwidthDominatesForBulk) {
  DeviceModel ssd(DeviceProfile::SSD());
  // 1 seek + 100MB: transfer cost dominates.
  double micros = ssd.ReadMicros(1, 100 << 20);
  double transfer = (100 << 20) / 500.0;
  EXPECT_NEAR(transfer, micros, transfer * 0.01);
}

TEST(DeviceModelTest, TotalMicrosCombinesReadAndWrite) {
  DeviceModel hdd(DeviceProfile::HDD());
  IoStatsSnapshot delta;
  delta.read_ops = 10;
  delta.bytes_read = 10 * 4096;
  delta.write_ops = 64;
  delta.bytes_written = 1 << 20;
  double total = hdd.TotalMicros(delta);
  EXPECT_GT(total, hdd.ReadMicros(10, 10 * 4096));
  EXPECT_GT(total, hdd.WriteMicros(64, 1 << 20));
}

TEST(AmpStatsTest, PerLevelAccounting) {
  AmpStats amp;
  amp.RecordUserWrite(1000);
  amp.RecordLevelWrite(1, WriteReason::kFlush, 1000);
  amp.RecordLevelWrite(2, WriteReason::kMerge, 3000);
  amp.RecordWal(1000);

  EXPECT_DOUBLE_EQ(1.0, amp.LevelWriteAmp(1));
  EXPECT_DOUBLE_EQ(3.0, amp.LevelWriteAmp(2));
  // WAL excluded from the per-level totals (paper Sec 6.2).
  EXPECT_DOUBLE_EQ(4.0, amp.TotalWriteAmp());
  EXPECT_EQ(2, amp.MaxRecordedLevel());
  EXPECT_EQ(1000u, amp.reason_bytes(WriteReason::kWal));
}

TEST(AmpStatsTest, ResetClearsEverything) {
  AmpStats amp;
  amp.RecordUserWrite(10);
  amp.RecordLevelWrite(3, WriteReason::kAppend, 100);
  amp.Reset();
  EXPECT_EQ(0u, amp.user_bytes());
  EXPECT_DOUBLE_EQ(0.0, amp.TotalWriteAmp());
}

TEST(AmpStatsTest, LevelClamping) {
  AmpStats amp;
  amp.RecordUserWrite(1);
  amp.RecordLevelWrite(-5, WriteReason::kFlush, 10);
  amp.RecordLevelWrite(99, WriteReason::kFlush, 20);
  EXPECT_EQ(10u, amp.level_bytes(0));
  EXPECT_EQ(20u, amp.level_bytes(AmpStats::kMaxLevels - 1));
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv: unsynced-byte tracking and crash semantics.

class FaultInjectionEnvTest : public testing::Test {
 protected:
  FaultInjectionEnvTest() : fault_(&mem_) {}

  std::string ReadAll(const std::string& fname) {
    std::string contents;
    EXPECT_TRUE(ReadFileToString(&fault_, fname, &contents).ok());
    return contents;
  }

  MemEnv mem_;
  FaultInjectionEnv fault_;
};

TEST_F(FaultInjectionEnvTest, DropUnsyncedKeepsSyncedPrefix) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fault_.NewWritableFile("/f", &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("-lost").ok());
  EXPECT_EQ(5u, fault_.UnsyncedBytes());

  ASSERT_TRUE(fault_.DropUnsyncedFileData().ok());
  EXPECT_EQ(0u, fault_.UnsyncedBytes());
  EXPECT_EQ("durable", ReadAll("/f"));
}

TEST_F(FaultInjectionEnvTest, RandomDropTearsInsideUnsyncedTail) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fault_.NewWritableFile("/f", &f).ok());
  ASSERT_TRUE(f->Append("sync").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("0123456789").ok());

  Random64 rng(42);
  ASSERT_TRUE(fault_.DropRandomUnsyncedFileData(&rng).ok());
  std::string contents = ReadAll("/f");
  ASSERT_GE(contents.size(), 4u);
  ASSERT_LE(contents.size(), 14u);
  EXPECT_EQ("sync", contents.substr(0, 4));
  EXPECT_EQ(std::string("0123456789").substr(0, contents.size() - 4),
            contents.substr(4));
}

TEST_F(FaultInjectionEnvTest, DeleteFilesCreatedAfterLastDirSync) {
  // Synced file created after the dir sync marker: its directory entry
  // became durable with the sync.
  fault_.MarkDirSynced();
  std::unique_ptr<WritableFile> synced;
  ASSERT_TRUE(fault_.NewWritableFile("/synced", &synced).ok());
  ASSERT_TRUE(synced->Append("x").ok());
  ASSERT_TRUE(synced->Sync().ok());
  // Never-synced file: the crash loses it entirely.
  std::unique_ptr<WritableFile> lost;
  ASSERT_TRUE(fault_.NewWritableFile("/lost", &lost).ok());
  ASSERT_TRUE(lost->Append("y").ok());

  ASSERT_TRUE(fault_.DeleteFilesCreatedAfterLastDirSync().ok());
  EXPECT_TRUE(fault_.FileExists("/synced"));
  EXPECT_FALSE(fault_.FileExists("/lost"));
}

TEST_F(FaultInjectionEnvTest, InactiveFilesystemFailsWritesNotReads) {
  ASSERT_TRUE(WriteStringToFile(&fault_, "v", "/f", true).ok());
  fault_.SetFilesystemActive(false);

  std::unique_ptr<WritableFile> w;
  EXPECT_FALSE(fault_.NewWritableFile("/g", &w).ok());
  EXPECT_FALSE(fault_.RemoveFile("/f").ok());
  EXPECT_FALSE(fault_.RenameFile("/f", "/h").ok());
  EXPECT_EQ("v", ReadAll("/f"));  // reads still work

  fault_.Heal();
  EXPECT_TRUE(fault_.IsFilesystemActive());
  EXPECT_TRUE(fault_.NewWritableFile("/g", &w).ok());
}

TEST_F(FaultInjectionEnvTest, ErrorScheduleIsSeedDeterministic) {
  // Same seed -> identical injected-failure sequence.
  std::vector<bool> runs[2];
  for (int run = 0; run < 2; run++) {
    fault_.Heal();
    fault_.SetErrorSchedule(kFaultWrite, /*seed=*/123, /*one_in=*/3);
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(fault_.NewWritableFile("/sched" + std::to_string(run), &f)
                    .ok());
    for (int i = 0; i < 64; i++) runs[run].push_back(f->Append("x").ok());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_NE(std::count(runs[0].begin(), runs[0].end(), false), 0);
  fault_.ClearErrorSchedule();
}

TEST_F(FaultInjectionEnvTest, ReadScheduleFailsSegmentsDeterministically) {
  ASSERT_TRUE(
      WriteStringToFile(&fault_, std::string(1024, 'r'), "/f", true).ok());

  // One RNG draw per segment: a 64-segment ReadV must replay exactly like
  // 64 sequential Read() calls under the same seed.
  std::vector<bool> loop_ok, vec_ok;
  fault_.SetErrorSchedule(kFaultRead, /*seed=*/99, /*one_in=*/4);
  {
    std::unique_ptr<RandomAccessFile> f;
    ASSERT_TRUE(fault_.NewRandomAccessFile("/f", &f).ok());
    char scratch[16];
    Slice result;
    for (int i = 0; i < 64; i++) {
      loop_ok.push_back(f->Read(i * 16, 16, &result, scratch).ok());
    }
  }
  fault_.SetErrorSchedule(kFaultRead, /*seed=*/99, /*one_in=*/4);
  {
    std::unique_ptr<RandomAccessFile> f;
    ASSERT_TRUE(fault_.NewRandomAccessFile("/f", &f).ok());
    std::vector<std::array<char, 16>> scratch(64);
    std::vector<ReadRequest> reqs(64);
    for (size_t i = 0; i < 64; i++) {
      reqs[i] = {i * 16, 16, scratch[i].data(), Slice(), Status::OK()};
    }
    f->ReadV(reqs.data(), reqs.size());
    for (const ReadRequest& r : reqs) vec_ok.push_back(r.status.ok());
  }
  fault_.ClearErrorSchedule();

  EXPECT_EQ(loop_ok, vec_ok);
  EXPECT_NE(std::count(loop_ok.begin(), loop_ok.end(), false), 0);
}

TEST_F(FaultInjectionEnvTest, ReadVSurvivorsSucceedAroundFailedSegments) {
  std::string payload;
  for (int i = 0; i < 64; i++) payload.push_back(static_cast<char>('A' + i % 26));
  ASSERT_TRUE(WriteStringToFile(&fault_, payload, "/f", true).ok());

  // Injected failures surface per segment; the survivors still carry the
  // right bytes rather than being poisoned by their failed neighbours.
  // Scan a few seeds so the assertion covers batches with both outcomes.
  int total_failures = 0;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    fault_.SetErrorSchedule(kFaultRead, seed, /*one_in=*/2);
    std::unique_ptr<RandomAccessFile> f;
    ASSERT_TRUE(fault_.NewRandomAccessFile("/f", &f).ok());
    std::vector<std::array<char, 4>> scratch(16);
    std::vector<ReadRequest> reqs(16);
    for (size_t i = 0; i < 16; i++) {
      reqs[i] = {i * 4, 4, scratch[i].data(), Slice(), Status::OK()};
    }
    f->ReadV(reqs.data(), reqs.size());
    for (size_t i = 0; i < 16; i++) {
      if (!reqs[i].status.ok()) {
        total_failures++;
        EXPECT_TRUE(reqs[i].result.empty());
      } else {
        EXPECT_EQ(payload.substr(i * 4, 4), reqs[i].result.ToString()) << i;
      }
    }
  }
  fault_.ClearErrorSchedule();
  EXPECT_GT(total_failures, 0);
}

TEST_F(FaultInjectionEnvTest, ReadsNeverChargeWriteBudget) {
  ASSERT_TRUE(WriteStringToFile(&fault_, "abcd", "/f", true).ok());
  fault_.SetWriteBudget(1);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(fault_.NewRandomAccessFile("/f", &f).ok());
  char scratch[4];
  Slice result;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(f->Read(0, 4, &result, scratch).ok());
  }
  // The budget is still intact for the write path.
  std::unique_ptr<WritableFile> w;
  EXPECT_TRUE(fault_.NewWritableFile("/g", &w).ok());
  fault_.Heal();
}

TEST_F(FaultInjectionEnvTest, RenameMovesTrackedState) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fault_.NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("keep").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("-drop").ok());
  f.reset();

  ASSERT_TRUE(fault_.RenameFile("/a", "/b").ok());
  ASSERT_TRUE(fault_.DropUnsyncedFileData().ok());
  EXPECT_EQ("keep", ReadAll("/b"));
}

// ---------------------------------------------------------------------------
// BufferedWritableFile: what reaches the file beneath, and when.

// Logs every call that reaches it: an Append as its bytes, the others by
// name.
class RecordingFile final : public WritableFile {
 public:
  explicit RecordingFile(std::vector<std::string>* calls) : calls_(calls) {}
  Status Append(const Slice& data) override {
    calls_->push_back(data.ToString());
    return Status::OK();
  }
  Status Close() override { return Log("<close>"); }
  Status Flush() override { return Log("<flush>"); }
  Status Sync() override { return Log("<sync>"); }

 private:
  Status Log(const char* call) {
    calls_->push_back(call);
    return Status::OK();
  }
  std::vector<std::string>* calls_;
};

using Calls = std::vector<std::string>;
constexpr size_t kBuf = BufferedWritableFile::kBufferSize;

TEST(BufferedWritableFileTest, SmallAppendsCoalesceUntilFlushSyncClose) {
  Calls calls;
  BufferedWritableFile f(std::make_unique<RecordingFile>(&calls));
  ASSERT_TRUE(f.Append("ab").ok());
  ASSERT_TRUE(f.Append("cd").ok());
  EXPECT_TRUE(calls.empty());
  ASSERT_TRUE(f.Flush().ok());
  EXPECT_EQ((Calls{"abcd", "<flush>"}), calls);

  calls.clear();
  ASSERT_TRUE(f.Append("e").ok());
  ASSERT_TRUE(f.Sync().ok());
  ASSERT_TRUE(f.Flush().ok());  // nothing buffered: no empty write
  EXPECT_EQ((Calls{"e", "<sync>", "<flush>"}), calls);

  calls.clear();
  ASSERT_TRUE(f.Append("fg").ok());
  ASSERT_TRUE(f.Close().ok());
  EXPECT_EQ((Calls{"fg", "<close>"}), calls);
}

TEST(BufferedWritableFileTest, OverflowPushesTheBufferFirst) {
  Calls calls;
  BufferedWritableFile f(std::make_unique<RecordingFile>(&calls));
  const std::string a(40 << 10, 'a'), b(30 << 10, 'b');
  const std::string c(kBuf - b.size(), 'c');
  ASSERT_TRUE(f.Append(a).ok());
  ASSERT_TRUE(f.Append(b).ok());  // would overflow: a goes out alone
  EXPECT_EQ((Calls{a}), calls);
  ASSERT_TRUE(f.Append(c).ok());  // fills the buffer exactly
  EXPECT_EQ(1u, calls.size());
  ASSERT_TRUE(f.Append("d").ok());
  EXPECT_EQ((Calls{a, b + c}), calls);
  ASSERT_TRUE(f.Close().ok());
  EXPECT_EQ((Calls{a, b + c, "d", "<close>"}), calls);
}

TEST(BufferedWritableFileTest, LargeAppendPassesThroughAfterPush) {
  Calls calls;
  BufferedWritableFile f(std::make_unique<RecordingFile>(&calls));
  const std::string full(kBuf, 'x'), bigger(kBuf + 1000, 'y');
  ASSERT_TRUE(f.Append("head").ok());
  ASSERT_TRUE(f.Append(full).ok());
  EXPECT_EQ((Calls{"head", full}), calls);
  ASSERT_TRUE(f.Append(bigger).ok());
  ASSERT_TRUE(f.Append("tail").ok());
  ASSERT_TRUE(f.Close().ok());
  EXPECT_EQ((Calls{"head", full, bigger, "tail", "<close>"}), calls);
}

// A push that fails surfaces from the call that made it, whichever call
// that is, and sticks: no later Sync acknowledges the lost bytes.
TEST_F(FaultInjectionEnvTest, BufferedPushFailureSticks) {
  enum Trigger { kAppend, kFlush, kSync, kClose };
  for (Trigger trigger : {kAppend, kFlush, kSync, kClose}) {
    SCOPED_TRACE(trigger);
    fault_.Heal();
    std::unique_ptr<WritableFile> inner;
    ASSERT_TRUE(fault_.NewWritableFile("/f", &inner).ok());
    BufferedWritableFile f(std::move(inner));
    ASSERT_TRUE(f.Append("durable").ok());
    ASSERT_TRUE(f.Sync().ok());
    ASSERT_TRUE(f.Append("lost").ok());

    fault_.SetErrorSchedule(kFaultWrite, /*seed=*/1, /*one_in=*/1,
                            /*max_failures=*/1);
    Status s;
    switch (trigger) {
      case kAppend: s = f.Append(std::string(kBuf, 'x')); break;
      case kFlush: s = f.Flush(); break;
      case kSync: s = f.Sync(); break;
      case kClose: s = f.Close(); break;
    }
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find("injected"));
    // The one-shot schedule is spent; the file beneath would take writes
    // again, but the buffer does not pretend the lost bytes landed.
    EXPECT_FALSE(f.Append("more").ok());
    EXPECT_FALSE(f.Sync().ok());
    EXPECT_EQ("durable", ReadAll("/f"));
    EXPECT_EQ(0u, fault_.UnsyncedBytes());
  }
}

}  // namespace
}  // namespace iamdb
