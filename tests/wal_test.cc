// WAL tests: framing round trips, block boundary handling, corruption and
// torn-tail recovery semantics, and the device writes a record costs.  The
// writer appends through a BufferedWritableFile over a CountingEnv, as the
// engine's WAL does.
#include <gtest/gtest.h>

#include "env/buffered_writable_file.h"
#include "env/counting_env.h"
#include "env/mem_env.h"
#include "stats/io_stats.h"
#include "util/random.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace iamdb {
namespace {

class WalTest : public testing::Test {
 protected:
  void SetUp() override { OpenWriter(); }

  void OpenWriter() {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(counting_.NewWritableFile("/log", &file).ok());
    file_ = std::make_unique<BufferedWritableFile>(std::move(file));
    writer_ = std::make_unique<log::Writer>(file_.get());
  }

  uint64_t LogSize() {
    uint64_t size = 0;
    EXPECT_TRUE(env_.GetFileSize("/log", &size).ok());
    return size;
  }

  void Write(const Slice& record) {
    ASSERT_TRUE(writer_->AddRecord(record).ok());
  }

  struct CollectingReporter : public log::Reader::Reporter {
    size_t dropped_bytes = 0;
    int corruptions = 0;
    void Corruption(size_t bytes, const Status&) override {
      dropped_bytes += bytes;
      corruptions++;
    }
  };

  std::vector<std::string> ReadAll(CollectingReporter* reporter = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile("/log", &file).ok());
    log::Reader reader(file.get(), reporter, true);
    std::vector<std::string> records;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      records.push_back(record.ToString());
    }
    return records;
  }

  void CorruptByte(uint64_t offset) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, "/log", &contents).ok());
    ASSERT_LT(offset, contents.size());
    contents[offset] ^= 0x42;
    ASSERT_TRUE(WriteStringToFile(&env_, contents, "/log", false).ok());
  }

  MemEnv env_;
  IoStats stats_;
  CountingEnv counting_{&env_, &stats_};
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<log::Writer> writer_;
};

TEST_F(WalTest, EmptyLog) { EXPECT_TRUE(ReadAll().empty()); }

TEST_F(WalTest, SmallRecordsRoundTrip) {
  Write("one");
  Write("two");
  Write("");
  Write("four");
  auto records = ReadAll();
  ASSERT_EQ(4u, records.size());
  EXPECT_EQ("one", records[0]);
  EXPECT_EQ("two", records[1]);
  EXPECT_EQ("", records[2]);
  EXPECT_EQ("four", records[3]);
}

TEST_F(WalTest, LargeRecordSpansBlocks) {
  std::string big(5 * log::kBlockSize + 123, 'q');
  for (size_t i = 0; i < big.size(); i++) big[i] = static_cast<char>(i % 251);
  Write(big);
  Write("tail");
  auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(big, records[0]);
  EXPECT_EQ("tail", records[1]);
}

TEST_F(WalTest, ManyRandomSizedRecords) {
  Random rnd(301);
  std::vector<std::string> expected;
  for (int i = 0; i < 300; i++) {
    std::string rec(rnd.Skewed(14), static_cast<char>('a' + (i % 26)));
    expected.push_back(rec);
    Write(rec);
  }
  auto records = ReadAll();
  ASSERT_EQ(expected.size(), records.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(expected[i], records[i]) << "record " << i;
  }
}

TEST_F(WalTest, RecordExactlyFillingBlockTail) {
  // Header is 7 bytes; leave exactly header-size room, then a record that
  // must start in the next block.
  Write(std::string(log::kBlockSize - 2 * log::kHeaderSize, 'a'));
  Write("b");
  auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ("b", records[1]);
}

TEST_F(WalTest, TornTailIsSilentlyDropped) {
  Write("keep me");
  Write(std::string(10000, 'x'));
  uint64_t full_size;
  ASSERT_TRUE(env_.GetFileSize("/log", &full_size).ok());
  // Chop off the middle of the second record.
  ASSERT_TRUE(env_.Truncate("/log", full_size - 5000).ok());

  CollectingReporter reporter;
  auto records = ReadAll(&reporter);
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ("keep me", records[0]);
  // A torn tail is a normal crash artifact, not corruption.
  EXPECT_EQ(0, reporter.corruptions);
}

TEST_F(WalTest, ChecksumCorruptionIsReportedAndSkipped) {
  // A short record, and a 1,044-byte one (a typical put's record) whose
  // checksum runs the long-buffer loop.
  for (size_t len : {size_t{6}, size_t{1044}}) {
    OpenWriter();
    Write("first");
    Write(std::string(len, 's'));
    Write("third");
    // Corrupt a payload byte of the second record.  All three live in
    // block 0: first occupies [0, 7+5), second [12, 12+7+len).
    CorruptByte(12 + log::kHeaderSize + len - 4);

    CollectingReporter reporter;
    auto records = ReadAll(&reporter);
    // On checksum mismatch the reader drops the rest of the block (the
    // second record AND "third" share block 0), resynchronizing at the next
    // block boundary.
    ASSERT_EQ(1u, records.size()) << "length " << len;
    EXPECT_EQ("first", records[0]);
    EXPECT_GT(reporter.corruptions, 0);
  }
}

TEST_F(WalTest, ReopenedLogAppendsCorrectly) {
  Write("before reopen");
  ASSERT_TRUE(file_->Close().ok());

  uint64_t size;
  ASSERT_TRUE(env_.GetFileSize("/log", &size).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_.NewAppendableFile("/log", &file).ok());
  log::Writer resumed(file.get(), size);
  ASSERT_TRUE(resumed.AddRecord("after reopen").ok());
  ASSERT_TRUE(file->Close().ok());

  auto records = ReadAll();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ("before reopen", records[0]);
  EXPECT_EQ("after reopen", records[1]);
}

TEST_F(WalTest, EachRecordIsOneDeviceWrite) {
  Random rnd(17);
  std::vector<std::string> expected;
  for (int i = 0; i < 200; i++) {
    expected.emplace_back(rnd.Uniform(300), static_cast<char>('a' + i % 26));
    Write(expected.back());
  }
  const IoStatsSnapshot io = stats_.Snapshot();
  EXPECT_EQ(expected.size(), io.write_ops);
  EXPECT_EQ(LogSize(), io.bytes_written);
  EXPECT_EQ(expected, ReadAll());
}

TEST_F(WalTest, RecordAcrossBlockBoundaryIsOneDeviceWrite) {
  // The first record leaves 3 bytes of block 0, too few for a header; the
  // second pads them, then spans blocks 1 and 2 as FIRST + LAST fragments.
  const std::string first(log::kBlockSize - log::kHeaderSize - 3, 'f');
  const std::string second(log::kBlockSize + 5000, 's');
  Write(first);
  ASSERT_EQ(static_cast<uint64_t>(log::kBlockSize - 3), LogSize());
  const IoStatsSnapshot before = stats_.Snapshot();
  Write(second);
  const IoStatsSnapshot io = stats_.Snapshot() - before;
  EXPECT_EQ(1u, io.write_ops);
  EXPECT_EQ(3 + 2 * log::kHeaderSize + second.size(), io.bytes_written);
  EXPECT_EQ(LogSize(), before.bytes_written + io.bytes_written);
  EXPECT_EQ((std::vector<std::string>{first, second}), ReadAll());
}

TEST_F(WalTest, FragmentedRecordReassembly) {
  // A record of ~1.5 blocks forces FIRST+LAST fragments.
  std::string rec(log::kBlockSize + log::kBlockSize / 2, 'z');
  Write(rec);
  auto records = ReadAll();
  ASSERT_EQ(1u, records.size());
  EXPECT_EQ(rec.size(), records[0].size());
}

}  // namespace
}  // namespace iamdb
