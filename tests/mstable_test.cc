// MSTable tests: build/read round trips, appended sequences, metadata
// clustering, crash-tolerance of appends (stale meta_end still readable),
// clean-up of abandoned and failed writes, point reads across sequences
// with MVCC, merged iteration, read-ahead of streaming (fill_cache = false)
// and cached scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/dbformat.h"
#include "env/counting_env.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "table/cache.h"
#include "table/compressor.h"
#include "table/merging_iterator.h"
#include "table/mstable.h"
#include "reader_equal.h"
#include "table_get.h"
#include "util/random.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType t = kTypeValue) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(user_key, seq, t));
  return r;
}

class MSTableTest : public testing::Test {
 protected:
  void SetUp() override {
    cache_ = std::make_unique<LruCache>(8 << 20);
    options_.block_cache = cache_.get();
    options_.block_size = 512;  // small blocks exercise the index
  }

  // Creates a new single-sequence table from sorted (ikey, value) pairs.
  MSTableBuildResult BuildNew(
      const std::string& fname,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    MSTableWriter writer(&env_, options_, &cmp_, fname, 1);
    EXPECT_TRUE(writer.Open().ok());
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(writer.Add(k, v).ok());
    }
    MSTableBuildResult result;
    EXPECT_TRUE(writer.Finish(false, &result).ok());
    return result;
  }

  MSTableBuildResult Append(
      const std::string& fname, const MSTableReader& existing,
      const std::vector<std::pair<std::string, std::string>>& entries) {
    MSTableWriter appender(&env_, options_, &cmp_, fname, 1, &existing);
    EXPECT_TRUE(appender.Open().ok());
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(appender.Add(k, v).ok());
    }
    MSTableBuildResult result;
    EXPECT_TRUE(appender.Finish(false, &result).ok());
    return result;
  }

  std::shared_ptr<MSTableReader> OpenReader(const std::string& fname,
                                            uint64_t meta_end,
                                            uint64_t file_number = 1) {
    std::shared_ptr<MSTableReader> reader;
    Status s = MSTableReader::Open(&env_, options_, &cmp_, fname, file_number,
                                   meta_end, &reader);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return reader;
  }

  // Point-read helper.
  std::string Get(const MSTableReader& reader, const std::string& key,
                  SequenceNumber snap, MultiGetRequest::State* state) {
    std::string value;
    Status s = TableGet(reader, key, snap, &value, state);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return value;
  }

  // A table of `sequences` appended sequences of `per_sequence` records
  // each, their keys interleaved (key%05d, record i of sequence s is key
  // i * sequences + s); returns its meta_end.
  uint64_t BuildInterleaved(const std::string& fname, int sequences,
                            int per_sequence) {
    uint64_t meta_end = 0;
    for (int seq = 0; seq < sequences; seq++) {
      std::vector<std::pair<std::string, std::string>> entries;
      for (int i = 0; i < per_sequence; i++) {
        char buf[16];
        snprintf(buf, sizeof(buf), "key%05d", i * sequences + seq);
        entries.emplace_back(IKey(buf, 10 + seq),
                             std::string(200, 'a' + seq));
      }
      if (seq == 0) {
        meta_end = BuildNew(fname, entries).meta_end;
      } else {
        meta_end =
            Append(fname, *OpenReader(fname, meta_end, seq), entries).meta_end;
      }
    }
    return meta_end;
  }

  // The index keys of one sequence's data blocks, in file order: each is
  // at or after every key of its block and before every key of the next.
  std::vector<std::string> IndexKeys(const SequenceReader& seq) {
    std::vector<std::string> keys;
    Block index(seq.index_contents().ToString());
    std::unique_ptr<Iterator> iter(index.NewIterator(&cmp_));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      keys.push_back(iter->key().ToString());
    }
    return keys;
  }

  // The data block handles of one sequence, in file order.
  std::vector<BlockHandle> DataBlocks(const SequenceReader& seq) {
    std::vector<BlockHandle> handles;
    Block index(seq.index_contents().ToString());
    std::unique_ptr<Iterator> iter(index.NewIterator(&cmp_));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      Slice input = iter->value();
      BlockHandle handle;
      EXPECT_TRUE(handle.DecodeFrom(&input).ok());
      handles.push_back(handle);
    }
    return handles;
  }

  // Builds a one-sequence table of `entries`, flips a byte inside the
  // stored payload of its middle data block, then checks that reads under
  // `read` surface Corruption and never a wrong record: a point read of
  // every key either returns its value or Corruption, and a full scan
  // yields the records before the corrupt block, nothing at or after it,
  // and ends in Corruption.
  void ExpectCorruptMiddleBlockSurfaces(
      const std::string& fname,
      const std::vector<std::pair<std::string, std::string>>& entries,
      const ReadOptions& read) {
    auto result = BuildNew(fname, entries);
    TableOptions no_cache = options_;
    no_cache.block_cache = nullptr;  // force the device read
    std::shared_ptr<MSTableReader> reader;
    ASSERT_TRUE(MSTableReader::Open(&env_, no_cache, &cmp_, fname, 1,
                                    result.meta_end, &reader)
                    .ok());
    const std::vector<BlockHandle> blocks = DataBlocks(reader->sequence(0));
    ASSERT_GE(blocks.size(), 3u);
    const BlockHandle& middle = blocks[blocks.size() / 2];
    // The records before the middle block: keys up to the index key of the
    // block just before it.
    const std::string before_middle =
        IndexKeys(reader->sequence(0))[blocks.size() / 2 - 1];
    size_t before = 0;
    while (before < entries.size() &&
           cmp_.Compare(entries[before].first, before_middle) <= 0) {
      before++;
    }
    ASSERT_GT(before, 0u);
    ASSERT_LT(before, entries.size());

    std::string contents;
    ASSERT_TRUE(ReadFileToString(&env_, fname, &contents).ok());
    contents[middle.offset() + middle.size() / 2] ^= 0x10;
    ASSERT_TRUE(WriteStringToFile(&env_, contents, fname, false).ok());
    ASSERT_TRUE(MSTableReader::Open(&env_, no_cache, &cmp_, fname, 2,
                                    result.meta_end, &reader)
                    .ok());

    int corrupt_gets = 0;
    for (const auto& [ikey, value] : entries) {
      MultiGetRequest::State state;
      std::string got;
      Status s = TableGet(*reader, ExtractUserKey(ikey), 100, &got, &state,
                          read);
      if (s.IsCorruption()) {
        corrupt_gets++;
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(MultiGetRequest::State::kFound, state);
      ASSERT_EQ(value, got);
    }
    EXPECT_GT(corrupt_gets, 0);

    // The scan stops at the bad block: it yields exactly the records before
    // it, each with its own value, and nothing from the block on.
    std::unique_ptr<Iterator> iter(reader->NewIterator(read));
    size_t yielded = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), yielded++) {
      ASSERT_LT(yielded, before) << "record at or after the corrupt block";
      ASSERT_EQ(entries[yielded].first, iter->key().ToString());
      ASSERT_EQ(entries[yielded].second, iter->value().ToString());
    }
    EXPECT_EQ(before, yielded);
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  }

  MemEnv env_;
  InternalKeyComparator cmp_;
  std::unique_ptr<LruCache> cache_;
  TableOptions options_;
};

ReadOptions StreamingRead() {
  ReadOptions read;
  read.fill_cache = false;
  return read;
}

TEST_F(MSTableTest, BuildAndReadSingleSequence) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 10), "value" + std::to_string(i));
  }
  auto result = BuildNew("/t1", entries);
  EXPECT_EQ(1, result.reader->seq_count());
  EXPECT_EQ(1000u, result.reader->total_entries());
  EXPECT_EQ(entries.front().first, result.reader->smallest().ToString());
  EXPECT_EQ(entries.back().first, result.reader->largest().ToString());

  auto reader = OpenReader("/t1", result.meta_end);
  ASSERT_NE(nullptr, reader);
  EXPECT_EQ(1, reader->seq_count());
  EXPECT_EQ(1000u, reader->total_entries());

  MultiGetRequest::State state;
  EXPECT_EQ("value42", Get(*reader, "key00042", 100, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);

  Get(*reader, "key99999", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
}

TEST_F(MSTableTest, IteratorFullScan) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%06d", i * 3);
    entries.emplace_back(IKey(buf, 7), std::string(i % 50, 'v'));
  }
  auto result = BuildNew("/t2", entries);
  auto reader = OpenReader("/t2", result.meta_end);

  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(entries.size(), i);
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(MSTableTest, AppendAddsSequenceNewestWins) {
  // Old sequence: keys 0..99 at seq 10.
  std::vector<std::pair<std::string, std::string>> old_entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    old_entries.emplace_back(IKey(buf, 10), "old");
  }
  auto r1 = BuildNew("/t3", old_entries);
  auto reader1 = OpenReader("/t3", r1.meta_end);

  // Appended sequence: overlapping keys 50..149 at seq 20.
  std::vector<std::pair<std::string, std::string>> new_entries;
  for (int i = 50; i < 150; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    new_entries.emplace_back(IKey(buf, 20), "new");
  }
  auto r2 = Append("/t3", *reader1, new_entries);
  EXPECT_EQ(2, r2.reader->seq_count());
  EXPECT_EQ(200u, r2.reader->total_entries());

  // Reader at the NEW meta_end sees both sequences; file number bumps the
  // cache generation implicitly since block offsets are unique.
  auto reader2 = OpenReader("/t3", r2.meta_end, 2);
  EXPECT_EQ(2, reader2->seq_count());

  MultiGetRequest::State state;
  EXPECT_EQ("new", Get(*reader2, "key075", 100, &state));  // overlap: newest
  EXPECT_EQ("old", Get(*reader2, "key025", 100, &state));  // old only
  EXPECT_EQ("new", Get(*reader2, "key125", 100, &state));  // new only

  // Snapshot below the append still sees the old value.
  EXPECT_EQ("old", Get(*reader2, "key075", 15, &state));

  // The OLD reader (stale meta_end) still works: append is crash-safe.
  auto reader_old = OpenReader("/t3", r1.meta_end, 3);
  EXPECT_EQ(1, reader_old->seq_count());
  EXPECT_EQ("old", Get(*reader_old, "key075", 100, &state));
  Get(*reader_old, "key125", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
}

TEST_F(MSTableTest, MultipleAppendsAccumulate) {
  auto r = BuildNew("/t4", {{IKey("a", 1), "v1"}});
  for (int gen = 2; gen <= 5; gen++) {
    auto reader = OpenReader("/t4", r.meta_end, gen);
    r = Append("/t4", *reader,
               {{IKey("a", static_cast<SequenceNumber>(gen)),
                 std::string("v").append(std::to_string(gen))}});
    EXPECT_EQ(gen, r.reader->seq_count());
  }
  auto reader = OpenReader("/t4", r.meta_end, 100);
  EXPECT_EQ(5, reader->seq_count());
  MultiGetRequest::State state;
  EXPECT_EQ("v5", Get(*reader, "a", 100, &state));
  EXPECT_EQ("v3", Get(*reader, "a", 3, &state));
  EXPECT_EQ("v1", Get(*reader, "a", 1, &state));
}

TEST_F(MSTableTest, AbandonedNewFileLeavesNoFile) {
  {
    MSTableWriter writer(&env_, options_, &cmp_, "/tab1", 1);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Add(IKey("a", 1), "v").ok());
    writer.Abandon();
    EXPECT_FALSE(env_.FileExists("/tab1"));
  }
  // A writer destroyed unfinished abandons too.
  {
    MSTableWriter writer(&env_, options_, &cmp_, "/tab2", 1);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Add(IKey("a", 1), "v").ok());
  }
  EXPECT_FALSE(env_.FileExists("/tab2"));
}

TEST_F(MSTableTest, AbandonedAppendLeavesNodeReadable) {
  auto r = BuildNew("/tap", {{IKey("a", 1), "a1"}, {IKey("b", 1), "b1"}});
  {
    auto reader = OpenReader("/tap", r.meta_end);
    MSTableWriter appender(&env_, options_, &cmp_, "/tap", 1,
                           reader.get());
    ASSERT_TRUE(appender.Open().ok());
    // Enough records that data blocks land past the recorded meta_end.
    for (int i = 0; i < 100; i++) {
      char key[16];
      snprintf(key, sizeof(key), "c%03d", i);
      ASSERT_TRUE(appender.Add(IKey(key, 2), std::string(100, 'x')).ok());
    }
    appender.Abandon();
  }
  uint64_t file_size = 0;
  ASSERT_TRUE(env_.GetFileSize("/tap", &file_size).ok());
  EXPECT_GT(file_size, r.meta_end);

  auto reader = OpenReader("/tap", r.meta_end, 2);
  EXPECT_EQ(1, reader->seq_count());
  EXPECT_EQ(2u, reader->total_entries());
  MultiGetRequest::State state;
  EXPECT_EQ("a1", Get(*reader, "a", 100, &state));
  EXPECT_EQ("b1", Get(*reader, "b", 100, &state));

  // The next append writes past the abandoned bytes.
  auto r2 = Append("/tap", *reader, {{IKey("a", 3), "a3"}});
  auto reader2 = OpenReader("/tap", r2.meta_end, 3);
  EXPECT_EQ(2, reader2->seq_count());
  EXPECT_EQ("a3", Get(*reader2, "a", 100, &state));
  EXPECT_EQ("b1", Get(*reader2, "b", 100, &state));
  Get(*reader2, "c000", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
}

TEST_F(MSTableTest, FailedFinishCleansUpAsAbandonDoes) {
  FaultInjectionEnv faulty(&env_);
  MSTableBuildResult result;
  {
    MSTableWriter writer(&faulty, options_, &cmp_, "/tfn", 1);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Add(IKey("a", 1), "v").ok());
    faulty.SetErrorSchedule(kFaultSync, /*seed=*/1, /*one_in=*/1);
    EXPECT_FALSE(writer.Finish(/*sync=*/true, &result).ok());
    faulty.ClearErrorSchedule();
    EXPECT_FALSE(env_.FileExists("/tfn"));
  }

  auto r = BuildNew("/tfa", {{IKey("a", 1), "a1"}});
  {
    auto reader = OpenReader("/tfa", r.meta_end);
    MSTableWriter appender(&faulty, options_, &cmp_, "/tfa", 1,
                           reader.get());
    ASSERT_TRUE(appender.Open().ok());
    ASSERT_TRUE(appender.Add(IKey("a", 2), "a2").ok());
    faulty.SetErrorSchedule(kFaultSync, /*seed=*/1, /*one_in=*/1);
    EXPECT_FALSE(appender.Finish(/*sync=*/true, &result).ok());
    faulty.ClearErrorSchedule();
  }
  auto reader = OpenReader("/tfa", r.meta_end, 2);
  EXPECT_EQ(1, reader->seq_count());
  MultiGetRequest::State state;
  EXPECT_EQ("a1", Get(*reader, "a", 100, &state));
}

TEST_F(MSTableTest, DeletionTombstoneVisible) {
  auto r1 = BuildNew("/t5", {{IKey("k", 5), "alive"}});
  auto reader1 = OpenReader("/t5", r1.meta_end);
  auto r2 = Append("/t5", *reader1, {{IKey("k", 9, kTypeDeletion), ""}});
  auto reader2 = OpenReader("/t5", r2.meta_end, 2);

  MultiGetRequest::State state;
  Get(*reader2, "k", 100, &state);
  EXPECT_EQ(MultiGetRequest::State::kDeleted, state);
  EXPECT_EQ("alive", Get(*reader2, "k", 7, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);
}

TEST_F(MSTableTest, MergedIteratorAcrossSequences) {
  std::vector<std::pair<std::string, std::string>> s1, s2;
  for (int i = 0; i < 100; i += 2) {  // evens at seq 10
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s1.emplace_back(IKey(buf, 10), "even");
  }
  auto r1 = BuildNew("/t6", s1);
  auto reader1 = OpenReader("/t6", r1.meta_end);
  for (int i = 1; i < 100; i += 2) {  // odds at seq 20
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s2.emplace_back(IKey(buf, 20), "odd");
  }
  auto r2 = Append("/t6", *reader1, s2);
  auto reader2 = OpenReader("/t6", r2.meta_end, 2);

  std::unique_ptr<Iterator> iter(reader2->NewIterator(ReadOptions()));
  int count = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    std::string cur = iter->key().ToString();
    if (!prev.empty()) {
      EXPECT_LT(cmp_.Compare(prev, cur), 0);
    }
    prev = cur;
  }
  EXPECT_EQ(100, count);
}

TEST_F(MSTableTest, BackwardScanAcrossSequences) {
  // Two interleaved sequences; a reverse scan must weave them in exact
  // descending order (exercises two-level + merging Prev paths).
  std::vector<std::pair<std::string, std::string>> s1, s2;
  for (int i = 0; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s1.emplace_back(IKey(buf, 10), "even");
  }
  auto r1 = BuildNew("/tb", s1);
  auto reader1 = OpenReader("/tb", r1.meta_end);
  for (int i = 1; i < 100; i += 2) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    s2.emplace_back(IKey(buf, 20), "odd");
  }
  auto r2 = Append("/tb", *reader1, s2);
  auto reader2 = OpenReader("/tb", r2.meta_end, 2);

  std::unique_ptr<Iterator> iter(reader2->NewIterator(ReadOptions()));
  int expect = 99;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), expect--) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", expect);
    ASSERT_EQ(buf, ExtractUserKey(iter->key()).ToString());
    ASSERT_EQ(expect % 2 == 0 ? "even" : "odd", iter->value().ToString());
  }
  EXPECT_EQ(-1, expect);

  // Mid-stream direction flip.
  iter->Seek(IKey("key050", kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key049", ExtractUserKey(iter->key()).ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key050", ExtractUserKey(iter->key()).ToString());
}

TEST_F(MSTableTest, AppendsLeaveDeadMetadataAccountedInFootprint) {
  // Each append supersedes the previous clustered metadata region; the
  // dead zones stay inside the file until a merge rewrites the node.
  auto r = BuildNew("/tc", {{IKey("a", 1), std::string(2000, 'v')}});
  uint64_t first_end = r.meta_end;
  uint64_t data = r.reader->total_data_bytes();
  for (int gen = 2; gen <= 6; gen++) {
    auto reader = OpenReader("/tc", r.meta_end, gen);
    r = Append("/tc", *reader,
               {{IKey(std::string("b").append(std::to_string(gen)), gen),
                 std::string(2000, 'v')}});
    data += 2000;
  }
  // Footprint (meta_end) grows faster than live data: dead metadata.
  uint64_t file_size;
  ASSERT_TRUE(env_.GetFileSize("/tc", &file_size).ok());
  EXPECT_EQ(file_size, r.meta_end);
  EXPECT_GT(r.meta_end - first_end,
            (r.reader->total_data_bytes() - 2000) + 4 * 64)
      << "expected dead metadata regions between appends";
  EXPECT_GT(r.reader->total_data_bytes(), 5u * 2000u);
}

TEST_F(MSTableTest, BloomPreventsDataBlockReads) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 1), "v");
  }
  // Build directly on counting env.
  MSTableWriter writer(&counting_env, options_, &cmp_, "/t7", 1);
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : entries) ASSERT_TRUE(writer.Add(k, v).ok());
  MSTableBuildResult result;
  ASSERT_TRUE(writer.Finish(false, &result).ok());

  // Use a reader without block cache so reads hit the "device".
  TableOptions no_cache = options_;
  no_cache.block_cache = nullptr;
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, no_cache, &cmp_, "/t7", 1,
                                  result.meta_end, &reader)
                  .ok());

  IoStatsSnapshot before = stats.Snapshot();
  // 200 misses: bloom should reject nearly all without any disk read.
  MultiGetRequest::State state;
  std::string value;
  int fp_reads = 0;
  for (int i = 0; i < 200; i++) {
    IoStatsSnapshot pre = stats.Snapshot();
    ASSERT_TRUE(
        TableGet(*reader, "absent" + std::to_string(i), 100, &value, &state)
            .ok());
    EXPECT_EQ(MultiGetRequest::State::kPending, state);
    if ((stats.Snapshot() - pre).read_ops > 0) fp_reads++;
  }
  EXPECT_LE(fp_reads, 4);  // ~0.2% fp rate, wide margin

  // A real hit costs exactly one data-block read (metadata is in memory).
  IoStatsSnapshot pre = stats.Snapshot();
  ASSERT_TRUE(TableGet(*reader, "key00500", 100, &value, &state).ok());
  EXPECT_EQ(MultiGetRequest::State::kFound, state);
  EXPECT_EQ(1u, (stats.Snapshot() - pre).read_ops);
  (void)before;
}

TEST_F(MSTableTest, MetadataIsOneContiguousReadOnOpen) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 2000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    entries.emplace_back(IKey(buf, 1), std::string(100, 'v'));
  }
  auto result = BuildNew("/t8", entries);

  IoStatsSnapshot before = stats.Snapshot();
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/t8", 1,
                                  result.meta_end, &reader)
                  .ok());
  IoStatsSnapshot delta = stats.Snapshot() - before;
  // One trailer read + one region read.
  EXPECT_EQ(2u, delta.read_ops);
}

// A writer hands out the reader Open would build from the file: for a new
// node, then after each of two appends, and with a codec (compressed data
// blocks, v2 framing); table_compat_test covers an append to a v1 file.
TEST_F(MSTableTest, HandedOffReaderEqualsOpen) {
  for (CompressionType codec :
       {CompressionType::kNone, CompressionType::kColumnar}) {
    options_.compression = codec;
    const std::string fname = "/th" + std::to_string(static_cast<int>(codec));
    std::shared_ptr<MSTableReader> handed;
    for (int seq = 0; seq < 3; seq++) {
      std::vector<std::pair<std::string, std::string>> entries;
      for (int i = 0; i < 300; i++) {
        char buf[16];
        snprintf(buf, sizeof(buf), "key%05d", i * 3 + seq);
        entries.emplace_back(IKey(buf, 10 + seq), std::string(60, 'a' + seq));
      }
      // A key every sequence rewrites: lookups resolve across sequences.
      entries.emplace_back(IKey("zz", 10 + seq), "z" + std::to_string(seq));
      MSTableBuildResult r = seq == 0 ? BuildNew(fname, entries)
                                      : Append(fname, *handed, entries);
      ASSERT_NE(nullptr, r.reader);
      EXPECT_EQ(seq + 1, r.reader->seq_count());
      ExpectSameReader(*r.reader, *OpenReader(fname, r.meta_end));
      handed = r.reader;
    }
  }
}

// Finish then a lookup the bloom filter rules out: no device read, where
// opening the node from the file costs two (see
// MetadataIsOneContiguousReadOnOpen).
TEST_F(MSTableTest, FinishedNodeNeedsNoReadToOpen) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  MSTableBuildResult result;
  {
    MSTableWriter writer(&counting_env, options_, &cmp_, "/tz", 1);
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 1000; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%05d", i);
      ASSERT_TRUE(writer.Add(IKey(buf, 1), "v").ok());
    }
    ASSERT_TRUE(writer.Finish(false, &result).ok());
  }
  ASSERT_NE(nullptr, result.reader);
  const IoStatsSnapshot before = stats.Snapshot();
  std::string value;
  MultiGetRequest::State state;
  ASSERT_TRUE(TableGet(*result.reader, "absent", 100, &value, &state).ok());
  EXPECT_EQ(MultiGetRequest::State::kPending, state);
  EXPECT_EQ(0u, (stats.Snapshot() - before).read_ops);
}

TEST_F(MSTableTest, CorruptTrailerRejected) {
  auto result = BuildNew("/t9", {{IKey("a", 1), "v"}});
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, "/t9", &contents).ok());
  contents[contents.size() - 6] ^= 0xff;  // inside the magic
  ASSERT_TRUE(WriteStringToFile(&env_, contents, "/t9", false).ok());
  std::shared_ptr<MSTableReader> reader;
  Status s = MSTableReader::Open(&env_, options_, &cmp_, "/t9", 1,
                                 result.meta_end, &reader);
  EXPECT_TRUE(s.IsCorruption());
}

// Parameter: ReadOptions::fill_cache.  Without it the scan streams the
// sequence through a readahead window, and the flipped block sits in the
// middle of the window's one read.
class MSTableChecksumTest : public MSTableTest,
                            public testing::WithParamInterface<bool> {};

TEST_P(MSTableChecksumTest, CorruptDataBlockDetectedWithChecksums) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    entries.emplace_back(IKey(buf, 1), std::string(64, 'v'));
  }
  ReadOptions read;
  read.fill_cache = GetParam();
  ExpectCorruptMiddleBlockSurfaces("/t10", entries, read);
}

INSTANTIATE_TEST_SUITE_P(FillCache, MSTableChecksumTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& i) {
                           return i.param ? "Cached" : "Streaming";
                         });

// ceil(log2(n)) for n >= 1.
uint64_t CeilLog2(uint64_t n) {
  uint64_t bits = 0;
  while ((uint64_t{1} << bits) < n) bits++;
  return bits;
}

// A non-filling merged scan reads each sequence in kReadaheadBytes chunks,
// however the merge interleaves the sequences.  A cached scan's window
// doubles while its run lasts: over the N blocks of one sequence that fit
// in a full window it issues at most ceil(log2 N) + 2 reads, then one read
// per kScanReadaheadBytes, and it reads at most twice the bytes it serves
// plus one window.  A backward scan of either kind reads each block once,
// as a scan without read-ahead does.
TEST_F(MSTableTest, StreamingScanReadsEachSequenceInChunks) {
  // Three sequences with interleaved keys, each over one chunk wide.
  const int kPerSequence = 1500;
  const uint64_t meta_end = BuildInterleaved("/ts", 3, kPerSequence);
  const size_t total_entries = 3 * kPerSequence;

  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  TableOptions no_cache = options_;
  no_cache.block_cache = nullptr;  // every cached-path block hits the device
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, no_cache, &cmp_, "/ts", 9,
                                  meta_end, &reader)
                  .ok());
  ASSERT_EQ(3, reader->seq_count());

  const uint64_t chunk = SequenceReader::kReadaheadBytes;
  const uint64_t window = SequenceReader::kScanReadaheadBytes;
  const uint64_t trailer = BlockTrailerSize(kCurrentFormatVersion);
  uint64_t block_bytes = 0;
  uint64_t chunk_bound = 0;
  uint64_t cached_bound = 0;
  for (int i = 0; i < reader->seq_count(); i++) {
    const SequenceReader& seq = reader->sequence(i);
    const std::vector<BlockHandle> handles = DataBlocks(seq);
    const uint64_t span = handles.back().offset() + handles.back().size() +
                          trailer - handles.front().offset();
    ASSERT_GT(span, chunk);  // at least one refill past the first
    ASSERT_GT(span, window);
    const uint64_t bound = (span + chunk - 1) / chunk + 1;
    block_bytes += span;
    chunk_bound += bound;

    // The leading blocks that fit in one full scan window, and the
    // records they hold (keys up to the last one's index separator).
    size_t window_blocks = 0;
    uint64_t window_bytes = 0;
    while (window_bytes + handles[window_blocks].size() + trailer <= window) {
      window_bytes += handles[window_blocks++].size() + trailer;
    }
    ASSERT_GT(window_blocks, 1u);
    const std::string separator = IndexKeys(seq)[window_blocks - 1];
    size_t window_records = 0;
    for (int r = 0; r < kPerSequence; r++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%05d", r * 3 + i);
      if (cmp_.Compare(IKey(buf, 10 + i), separator) <= 0) window_records++;
    }
    // A cached scan of those blocks alone: the window doubles from one
    // block.  Past them it reads one full window at a time.
    const uint64_t doubling = CeilLog2(window_blocks) + 2;
    const uint64_t capped = doubling + (span + window - 1) / window;
    cached_bound += capped;
    {
      IoStatsSnapshot before = stats.Snapshot();
      std::unique_ptr<Iterator> iter(seq.NewIterator(ReadOptions()));
      iter->SeekToFirst();
      for (size_t r = 1; r < window_records; r++) iter->Next();
      ASSERT_TRUE(iter->Valid()) << iter->status().ToString();
      const IoStatsSnapshot io = stats.Snapshot() - before;
      EXPECT_LE(io.read_ops, doubling) << "sequence " << i;
      EXPECT_LE(io.bytes_read, 2 * window_bytes + window) << "sequence " << i;
    }

    for (const bool fill_cache : {false, true}) {
      ReadOptions read;
      read.fill_cache = fill_cache;
      IoStatsSnapshot before = stats.Snapshot();
      std::unique_ptr<Iterator> iter(seq.NewIterator(read));
      size_t n = 0;
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
      ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
      EXPECT_EQ(static_cast<size_t>(kPerSequence), n);
      const IoStatsSnapshot io = stats.Snapshot() - before;
      EXPECT_LE(io.read_ops, fill_cache ? capped : bound)
          << "sequence " << i << (fill_cache ? " cached" : " streaming");
      EXPECT_LE(io.bytes_read, 2 * span + (fill_cache ? window : chunk))
          << "sequence " << i;
    }
  }

  auto scan = [&](const ReadOptions& read, bool backward,
                  std::vector<std::string>* keys) {
    IoStatsSnapshot before = stats.Snapshot();
    std::unique_ptr<Iterator> iter(reader->NewIterator(read));
    if (backward) {
      for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
        keys->push_back(iter->key().ToString());
      }
    } else {
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        keys->push_back(iter->key().ToString());
      }
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    return stats.Snapshot() - before;
  };

  std::vector<std::string> streamed, cached;
  const IoStatsSnapshot streaming_io = scan(StreamingRead(), false, &streamed);
  const IoStatsSnapshot cached_io = scan(ReadOptions(), false, &cached);
  EXPECT_EQ(total_entries, streamed.size());
  EXPECT_EQ(cached, streamed);
  EXPECT_LE(streaming_io.read_ops, chunk_bound);
  EXPECT_LE(cached_io.read_ops, cached_bound);
  EXPECT_LE(cached_io.bytes_read, 2 * block_bytes + 3 * window);

  std::vector<std::string> streamed_back, cached_back;
  const IoStatsSnapshot streaming_back_io =
      scan(StreamingRead(), true, &streamed_back);
  const IoStatsSnapshot cached_back_io =
      scan(ReadOptions(), true, &cached_back);
  EXPECT_EQ(total_entries, streamed_back.size());
  EXPECT_EQ(cached_back, streamed_back);
  EXPECT_EQ(block_bytes, cached_back_io.bytes_read);
  EXPECT_LE(streaming_back_io.bytes_read, cached_back_io.bytes_read);
}

// A cached scan reads one block after a Seek, and a jump starts that
// over: a short scan pays for no read-ahead it does not use.
TEST_F(MSTableTest, CachedScanReadsOneBlockAfterSeek) {
  const uint64_t meta_end = BuildInterleaved("/tseek", 1, 1500);
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  TableOptions no_cache = options_;
  no_cache.block_cache = nullptr;
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, no_cache, &cmp_, "/tseek", 9,
                                  meta_end, &reader)
                  .ok());
  const std::vector<BlockHandle> handles = DataBlocks(reader->sequence(0));
  const uint64_t trailer = BlockTrailerSize(kCurrentFormatVersion);
  const uint64_t max_block =
      std::max_element(handles.begin(), handles.end(),
                       [](const BlockHandle& a, const BlockHandle& b) {
                         return a.size() < b.size();
                       })
          ->size() +
      trailer;

  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  for (const char* target : {"key00750", "key01400", "key00100"}) {
    const IoStatsSnapshot before = stats.Snapshot();
    iter->Seek(IKey(target, kMaxSequenceNumber, kValueTypeForSeek));
    ASSERT_TRUE(iter->Valid()) << target;
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), target);
    const IoStatsSnapshot io = stats.Snapshot() - before;
    EXPECT_EQ(1u, io.read_ops) << target;
    EXPECT_LE(io.bytes_read, max_block) << target;
  }
}

// Read-ahead fills the block cache only with the blocks the scan serves,
// and a cache-only iterator still reads nothing: it serves exactly those
// blocks and then stops with Incomplete.
TEST_F(MSTableTest, CachedScanCachesOnlyServedBlocks) {
  const uint64_t meta_end = BuildInterleaved("/tfill", 1, 1500);
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/tfill", 9,
                                  meta_end, &reader)
                  .ok());
  const std::vector<BlockHandle> handles = DataBlocks(reader->sequence(0));
  const uint64_t trailer = BlockTrailerSize(kCurrentFormatVersion);

  // Scan until the fourth read (windows of 1, 1, 2 and about 4 blocks),
  // then stop on the first record it brought in.
  const IoStatsSnapshot start = stats.Snapshot();
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t scanned = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), scanned++) {
    if ((stats.Snapshot() - start).read_ops == 4) break;
  }
  ASSERT_TRUE(iter->Valid());
  const IoStatsSnapshot io = stats.Snapshot() - start;
  iter.reset();

  size_t cached = 0;
  uint64_t cached_bytes = 0;
  for (const BlockHandle& h : handles) {
    if (CacheLookup<Block>(*cache_, {9, h.offset()}) == nullptr) break;
    cached++;
    cached_bytes += h.size() + trailer;
  }
  for (size_t b = cached; b < handles.size(); b++) {
    EXPECT_EQ(nullptr, CacheLookup<Block>(*cache_, {9, handles[b].offset()}))
        << "block " << b << " cached but not served";
  }
  EXPECT_GT(cached, 3u);
  EXPECT_GT(io.bytes_read, cached_bytes);  // the window read unserved blocks

  ReadOptions cache_only;
  cache_only.cache_only = true;
  const IoStatsSnapshot before = stats.Snapshot();
  iter.reset(reader->NewIterator(cache_only));
  size_t served = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) served++;
  EXPECT_TRUE(iter->status().IsIncomplete()) << iter->status().ToString();
  EXPECT_GT(served, scanned);
  const IoStatsSnapshot after = stats.Snapshot() - before;
  EXPECT_EQ(0u, after.read_ops);
  EXPECT_EQ(0u, after.bytes_read);
}

TEST_F(MSTableTest, RandomizedMultiSequenceAgainstModel) {
  Random rnd(77);
  std::map<std::string, std::pair<SequenceNumber, std::string>> model;
  SequenceNumber seq = 1;

  // Build 4 sequences of random keys, each strictly newer.
  uint64_t meta_end = 0;
  for (int s = 0; s < 4; s++) {
    std::map<std::string, std::string> batch;
    for (int i = 0; i < 300; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%04d", rnd.Uniform(1000));
      batch[buf] = std::string("s")
                       .append(std::to_string(s))
                       .append("i")
                       .append(std::to_string(i));
    }
    std::vector<std::pair<std::string, std::string>> entries;
    for (const auto& [k, v] : batch) {
      entries.emplace_back(IKey(k, seq), v);
      model[k] = {seq, v};
    }
    seq++;
    if (s == 0) {
      meta_end = BuildNew("/t11", entries).meta_end;
    } else {
      auto reader = OpenReader("/t11", meta_end, s);
      meta_end = Append("/t11", *reader, entries).meta_end;
    }
  }

  auto reader = OpenReader("/t11", meta_end, 50);
  EXPECT_EQ(4, reader->seq_count());
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    MultiGetRequest::State state;
    std::string value = Get(*reader, buf, 100, &state);
    auto it = model.find(buf);
    if (it == model.end()) {
      EXPECT_EQ(MultiGetRequest::State::kPending, state) << buf;
    } else {
      ASSERT_EQ(MultiGetRequest::State::kFound, state) << buf;
      EXPECT_EQ(it->second.second, value) << buf;
    }
  }

  // Merged scan equals the model.
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  std::map<std::string, std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    std::string uk = parsed.user_key.ToString();
    if (seen.count(uk) == 0) {  // first (newest) version wins
      seen[uk] = iter->value().ToString();
    }
  }
  ASSERT_EQ(model.size(), seen.size());
  for (const auto& [k, sv] : model) {
    EXPECT_EQ(sv.second, seen[k]) << k;
  }
}

// ---------------------------------------------------------------------------
// Per-block compression (format v2).

// YCSB-shaped entries: fixed-size values of 8-byte letter runs, the pattern
// the columnar codec targets.
std::vector<std::pair<std::string, std::string>> FixedRecordEntries(int n) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i);
    std::string value;
    for (int f = 0; f < 10; f++) {
      value.append(8, static_cast<char>('a' + (i + f) % 26));
    }
    entries.emplace_back(IKey(buf, 10), value);
  }
  return entries;
}

class MSTableCompressionTest : public MSTableTest,
                               public testing::WithParamInterface<
                                   CompressionType> {};

TEST_P(MSTableCompressionTest, CompressedBuildReadsBackIdentically) {
  auto entries = FixedRecordEntries(1000);
  auto raw = BuildNew("/raw", entries);

  options_.compression = GetParam();
  auto compressed = BuildNew("/comp", entries);

  // Physical footprint shrinks; logical accounting (data_bytes drives node
  // splits and merge triggers) is codec-invariant so tree shape — and the
  // tree digest — cannot depend on the codec.
  EXPECT_LT(compressed.meta_end, raw.meta_end);
  EXPECT_EQ(compressed.reader->total_data_bytes(),
            raw.reader->total_data_bytes());

  auto reader = OpenReader("/comp", compressed.meta_end);
  ASSERT_NE(nullptr, reader);
  MultiGetRequest::State state;
  EXPECT_EQ(entries[42].second, Get(*reader, "user000042", 100, &state));
  EXPECT_EQ(MultiGetRequest::State::kFound, state);

  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(entries.size(), i);
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(MSTableCompressionTest, CompressedAppendRoundtrip) {
  options_.compression = GetParam();
  auto entries1 = FixedRecordEntries(400);
  auto r1 = BuildNew("/ta", entries1);
  auto reader1 = OpenReader("/ta", r1.meta_end);
  ASSERT_NE(nullptr, reader1);

  std::vector<std::pair<std::string, std::string>> entries2;
  for (int i = 200; i < 600; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "user%06d", i);
    entries2.emplace_back(IKey(buf, 20), std::string(80, 'z'));
  }
  auto r2 = Append("/ta", *reader1, entries2);
  EXPECT_EQ(2, r2.reader->seq_count());

  auto reader2 = OpenReader("/ta", r2.meta_end);
  ASSERT_NE(nullptr, reader2);
  MultiGetRequest::State state;
  // Overlap region: the newer sequence (seq 20) wins.
  EXPECT_EQ(std::string(80, 'z'), Get(*reader2, "user000300", 100, &state));
  // Old-only and new-only keys both resolve.
  EXPECT_EQ(entries1[10].second, Get(*reader2, "user000010", 100, &state));
  EXPECT_EQ(std::string(80, 'z'), Get(*reader2, "user000599", 100, &state));
}

TEST_P(MSTableCompressionTest, CacheChargesUncompressedResidentSize) {
  options_.compression = GetParam();
  auto entries = FixedRecordEntries(2000);
  auto result = BuildNew("/tcc", entries);
  uint64_t file_size = 0;
  ASSERT_TRUE(env_.GetFileSize("/tcc", &file_size).ok());

  // Fresh cache; scan everything so every data block lands in it.
  cache_ = std::make_unique<LruCache>(64 << 20);
  options_.block_cache = cache_.get();
  auto reader = OpenReader("/tcc", result.meta_end);
  ASSERT_NE(nullptr, reader);
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  size_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
  ASSERT_EQ(entries.size(), n);

  // Blocks are charged at their *uncompressed* resident size: cached bytes
  // must track the logical data size, not the (much smaller) on-disk file.
  EXPECT_GT(cache_->usage(), file_size);
  EXPECT_LE(cache_->usage(), result.reader->total_data_bytes());
}

TEST_P(MSTableCompressionTest, CompressedCacheTierServesRereads) {
  IoStats stats;
  CountingEnv counting_env(&env_, &stats);
  options_.compression = GetParam();
  LruCache compressed_cache(8 << 20);
  options_.compressed_block_cache = &compressed_cache;
  CompressionStats cstats;
  options_.compression_stats = &cstats;

  auto entries = FixedRecordEntries(1000);
  MSTableWriter writer(&counting_env, options_, &cmp_, "/tct", 1);
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [k, v] : entries) ASSERT_TRUE(writer.Add(k, v).ok());
  MSTableBuildResult result;
  ASSERT_TRUE(writer.Finish(false, &result).ok());
  ASSERT_GT(cstats.stored_bytes.load(), 0u);
  EXPECT_LT(cstats.stored_bytes.load(), cstats.input_bytes.load());

  // First pass fills both tiers.
  std::shared_ptr<MSTableReader> reader;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/tct", 1,
                                  result.meta_end, &reader)
                  .ok());
  std::unique_ptr<Iterator> iter(reader->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  EXPECT_GT(compressed_cache.usage(), 0u);

  // Drop the uncompressed tier; a re-read must be fed entirely from the
  // compressed tier — zero device reads, only decompression work.
  cache_ = std::make_unique<LruCache>(64 << 20);
  options_.block_cache = cache_.get();
  std::shared_ptr<MSTableReader> reader2;
  ASSERT_TRUE(MSTableReader::Open(&counting_env, options_, &cmp_, "/tct", 1,
                                  result.meta_end, &reader2)
                  .ok());
  const uint64_t decompressed_before = cstats.decompressed_blocks.load();
  IoStatsSnapshot before = stats.Snapshot();
  std::unique_ptr<Iterator> iter2(reader2->NewIterator(ReadOptions()));
  size_t n = 0;
  for (iter2->SeekToFirst(); iter2->Valid(); iter2->Next()) n++;
  ASSERT_EQ(entries.size(), n);
  EXPECT_EQ(0u, (stats.Snapshot() - before).read_ops);
  EXPECT_GT(cstats.decompressed_blocks.load(), decompressed_before);
}

INSTANTIATE_TEST_SUITE_P(Codecs, MSTableCompressionTest,
                         testing::Values(CompressionType::kColumnar,
                                         CompressionType::kLz),
                         [](const testing::TestParamInfo<CompressionType>& i) {
                           return std::string(CompressionTypeName(i.param));
                         });

// Parameters: the codec, and ReadOptions::fill_cache (see
// MSTableChecksumTest).
class MSTableCompressedCorruptionTest
    : public MSTableTest,
      public testing::WithParamInterface<std::tuple<CompressionType, bool>> {};

TEST_P(MSTableCompressedCorruptionTest,
       CorruptCompressedBlockSurfacesCorruption) {
  options_.compression = std::get<0>(GetParam());
  ReadOptions read;
  read.fill_cache = std::get<1>(GetParam());
  // The flipped byte lies inside a compressed payload: the CRC (which
  // covers payload + type tag) must reject it before the codec runs.
  ExpectCorruptMiddleBlockSurfaces("/tcx", FixedRecordEntries(500), read);
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, MSTableCompressedCorruptionTest,
    testing::Combine(testing::Values(CompressionType::kColumnar,
                                     CompressionType::kLz),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<CompressionType, bool>>& i) {
      return std::string(CompressionTypeName(std::get<0>(i.param))) +
             (std::get<1>(i.param) ? "Cached" : "Streaming");
    });

}  // namespace
}  // namespace iamdb
