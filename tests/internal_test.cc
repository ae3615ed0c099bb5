// Unit tests for internal core machinery: compaction visibility rules,
// the user-facing DB iterator, manifest round trips, file naming, the
// snapshot list, and the merging iterator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/compaction_stream.h"
#include "core/db_iter.h"
#include "core/filename.h"
#include "core/manifest.h"
#include "core/snapshot.h"
#include "env/mem_env.h"
#include "table/mstable.h"
#include "util/random.h"
#include "table/merging_iterator.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& k, SequenceNumber s,
                 ValueType t = kTypeValue) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(k, s, t));
  return r;
}

// Simple sorted-vector internal iterator for feeding test streams.
class TestIter final : public Iterator {
 public:
  explicit TestIter(std::vector<std::pair<std::string, std::string>> data)
      : data_(std::move(data)), index_(data_.size()) {}
  bool Valid() const override { return index_ < data_.size(); }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override { index_ = data_.empty() ? 0 : data_.size() - 1; }
  void Seek(const Slice& target) override {
    InternalKeyComparator cmp;
    index_ = 0;
    while (index_ < data_.size() &&
           cmp.Compare(Slice(data_[index_].first), target) < 0) {
      index_++;
    }
  }
  void Next() override { index_++; }
  void Prev() override { index_ = index_ == 0 ? data_.size() : index_ - 1; }
  Slice key() const override { return Slice(data_[index_].first); }
  Slice value() const override { return Slice(data_[index_].second); }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> data_;
  size_t index_;
};

// ---------------------------------------------------------------------------
// CompactionStream (visibility-driven record dropping)

std::vector<std::pair<std::string, std::string>> Drain(CompactionStream* s) {
  std::vector<std::pair<std::string, std::string>> out;
  while (s->Valid()) {
    out.emplace_back(s->key().ToString(), s->value().ToString());
    s->Next();
  }
  return out;
}

TEST(CompactionStreamTest, KeepsNewestDropsShadowed) {
  auto* in = new TestIter({{IKey("a", 30), "v30"},
                           {IKey("a", 20), "v20"},
                           {IKey("a", 10), "v10"},
                           {IKey("b", 5), "b5"}});
  CompactionStream stream(in, /*smallest_snapshot=*/100, false);
  auto out = Drain(&stream);
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ("v30", out[0].second);
  EXPECT_EQ("b5", out[1].second);
  EXPECT_EQ(2u, stream.entries_dropped());
}

TEST(CompactionStreamTest, SnapshotPinsOldVersions) {
  auto* in = new TestIter({{IKey("a", 30), "v30"},
                           {IKey("a", 20), "v20"},
                           {IKey("a", 10), "v10"}});
  // A snapshot at 20 needs v20 (its visible version); v10 is shadowed by
  // v20 which is <= 20, so v10 drops.
  CompactionStream stream(in, /*smallest_snapshot=*/20, false);
  auto out = Drain(&stream);
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ("v30", out[0].second);
  EXPECT_EQ("v20", out[1].second);
}

TEST(CompactionStreamTest, TombstoneKeptWhenNotBottommost) {
  auto* in = new TestIter({{IKey("a", 30, kTypeDeletion), ""},
                           {IKey("a", 10), "old"}});
  CompactionStream stream(in, 100, /*bottommost=*/false);
  auto out = Drain(&stream);
  // The tombstone must survive to shadow deeper data; "old" is shadowed.
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(kTypeDeletion, ExtractValueType(out[0].first));
}

TEST(CompactionStreamTest, TombstoneDroppedAtBottom) {
  auto* in = new TestIter({{IKey("a", 30, kTypeDeletion), ""},
                           {IKey("a", 10), "old"},
                           {IKey("b", 5), "keep"}});
  CompactionStream stream(in, 100, /*bottommost=*/true);
  auto out = Drain(&stream);
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ("keep", out[0].second);
}

TEST(CompactionStreamTest, TombstoneAboveSnapshotKeptEvenAtBottom) {
  auto* in = new TestIter({{IKey("a", 30, kTypeDeletion), ""},
                           {IKey("a", 10), "old"}});
  // Snapshot at 15 still sees "old"; the tombstone (seq 30 > 15) must stay
  // and so must the old value.
  CompactionStream stream(in, 15, /*bottommost=*/true);
  auto out = Drain(&stream);
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ(kTypeDeletion, ExtractValueType(out[0].first));
  EXPECT_EQ("old", out[1].second);
}

TEST(CompactionStreamTest, EmptyInput) {
  CompactionStream stream(new TestIter({}), 100, true);
  EXPECT_FALSE(stream.Valid());
  EXPECT_TRUE(stream.status().ok());
}

// Internal-key-ordered records over 30 user keys, 1-6 versions each, a
// third of them tombstones, values of 1-3 decimal digits.
std::vector<std::pair<std::string, std::string>> RandomVersions(
    iamdb::Random* rnd) {
  std::vector<std::pair<std::string, std::string>> input;
  for (int k = 0; k < 30; k++) {
    std::string user = std::string("k").append(std::to_string(k));
    int versions = 1 + rnd->Uniform(6);
    std::set<SequenceNumber> seqs;
    while (static_cast<int>(seqs.size()) < versions) {
      seqs.insert(1 + rnd->Uniform(200));
    }
    for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
      ValueType t = rnd->OneIn(3) ? kTypeDeletion : kTypeValue;
      input.emplace_back(
          IKey(user, *it, t),
          t == kTypeValue ? std::string("v").append(std::to_string(*it)) : "");
    }
  }
  return input;
}

// Reference survival rule: the surviving set is exactly {newest version per
// key} union {versions that are the newest <= smallest_snapshot for their
// key}, minus bottommost tombstones <= snapshot.
std::vector<std::pair<std::string, std::string>> Survivors(
    const std::vector<std::pair<std::string, std::string>>& input,
    SequenceNumber snapshot, bool bottommost) {
  std::vector<std::pair<std::string, std::string>> out;
  std::string prev_user;
  SequenceNumber last_seq = kMaxSequenceNumber;
  for (const auto& [ikey, value] : input) {
    ParsedInternalKey pk;
    EXPECT_TRUE(ParseInternalKey(ikey, &pk));
    std::string user = pk.user_key.ToString();
    if (user != prev_user) {
      prev_user = user;
      last_seq = kMaxSequenceNumber;
    }
    bool drop = false;
    if (last_seq <= snapshot) {
      drop = true;
    } else if (pk.type == kTypeDeletion && pk.sequence <= snapshot &&
               bottommost) {
      drop = true;
    }
    last_seq = pk.sequence;
    if (!drop) out.emplace_back(ikey, value);
  }
  return out;
}

TEST(CompactionStreamTest, RandomizedAgainstReferenceRule) {
  iamdb::Random rnd(4242);
  for (int trial = 0; trial < 20; trial++) {
    SequenceNumber snapshot = 1 + rnd.Uniform(200);
    bool bottommost = rnd.OneIn(2);
    auto input = RandomVersions(&rnd);
    CompactionStream stream(new TestIter(input), snapshot, bottommost);
    EXPECT_EQ(Survivors(input, snapshot, bottommost), Drain(&stream))
        << "trial " << trial << " snap " << snapshot << " bottom "
        << bottommost;
  }
}

// The stream copies no record: key() and value() are the input's slices.
// Over table blocks (two sequences of one MSTable, small blocks, so the
// input changes blocks under the stream), each emitted record's slices must
// stay in place and unchanged until Next(), and the stream must drop
// exactly the records the reference rule drops.
TEST(CompactionStreamTest, BlockBackedSlicesStableUntilNext) {
  MemEnv env;
  TableOptions options;
  options.block_size = 128;
  InternalKeyComparator icmp;
  iamdb::Random rnd(1729);
  for (int trial = 0; trial < 10; trial++) {
    SequenceNumber snapshot = 1 + rnd.Uniform(200);
    bool bottommost = rnd.OneIn(2);
    // A table holds its records in internal-key order ("k10" < "k9").
    auto input = RandomVersions(&rnd);
    std::sort(input.begin(), input.end(), [&icmp](const auto& a, const auto& b) {
      return icmp.Compare(Slice(a.first), Slice(b.first)) < 0;
    });
    // Long values, so that a block holds only a few records.
    for (auto& [ikey, value] : input) {
      if (!value.empty()) value += std::string(20 + rnd.Uniform(60), 'x');
    }
    // Split the records between an older and a newer sequence.
    std::vector<std::pair<std::string, std::string>> halves[2];
    for (const auto& record : input) halves[rnd.Uniform(2)].push_back(record);

    const std::string fname = "/t" + std::to_string(trial);
    MSTableBuildResult result;
    MSTableWriter writer(&env, options, &icmp, fname, 1);
    ASSERT_TRUE(writer.Open().ok());
    for (const auto& [k, v] : halves[0]) ASSERT_TRUE(writer.Add(k, v).ok());
    ASSERT_TRUE(writer.Finish(false, &result).ok());
    std::shared_ptr<MSTableReader> reader;
    ASSERT_TRUE(MSTableReader::Open(&env, options, &icmp, fname, 1,
                                    result.meta_end, &reader)
                    .ok());
    MSTableWriter appender(&env, options, &icmp, fname, 1, reader.get());
    ASSERT_TRUE(appender.Open().ok());
    for (const auto& [k, v] : halves[1]) ASSERT_TRUE(appender.Add(k, v).ok());
    ASSERT_TRUE(appender.Finish(false, &result).ok());
    ASSERT_TRUE(MSTableReader::Open(&env, options, &icmp, fname, 1,
                                    result.meta_end, &reader)
                    .ok());

    ReadOptions read;
    read.fill_cache = false;
    std::vector<Iterator*> iters;
    reader->AddSequenceIterators(read, &iters);
    CompactionStream stream(
        NewMergingIterator(&icmp, iters.data(), static_cast<int>(iters.size())),
        snapshot, bottommost);
    std::vector<std::pair<std::string, std::string>> got;
    while (stream.Valid()) {
      const Slice key = stream.key();
      const Slice value = stream.value();
      got.emplace_back(key.ToString(), value.ToString());
      // Calls that are not Next() leave the slices where they were.
      ASSERT_TRUE(stream.Valid());
      ASSERT_TRUE(stream.status().ok());
      EXPECT_EQ(key.data(), stream.key().data());
      EXPECT_EQ(value.data(), stream.value().data());
      EXPECT_EQ(got.back().first, key.ToString());
      EXPECT_EQ(got.back().second, value.ToString());
      stream.Next();
    }
    ASSERT_TRUE(stream.status().ok());
    auto expect = Survivors(input, snapshot, bottommost);
    EXPECT_EQ(expect, got) << "trial " << trial << " snap " << snapshot
                           << " bottom " << bottommost;
    EXPECT_EQ(input.size() - expect.size(), stream.entries_dropped());
  }
}

// ---------------------------------------------------------------------------
// DBIter (user-visible view)

TEST(DbIterTest, HidesDeletedAndOldVersions) {
  auto* in = new TestIter({{IKey("a", 10), "a10"},
                           {IKey("b", 30, kTypeDeletion), ""},
                           {IKey("b", 20), "b20"},
                           {IKey("c", 15), "c15"},
                           {IKey("c", 5), "c5"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 100));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", iter->key().ToString());
  EXPECT_EQ("a10", iter->value().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("c", iter->key().ToString());  // b hidden by tombstone
  EXPECT_EQ("c15", iter->value().ToString());
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST(DbIterTest, RespectsSequenceHorizon) {
  auto* in = new TestIter({{IKey("k", 50), "new"}, {IKey("k", 10), "old"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 20));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("old", iter->value().ToString());
}

TEST(DbIterTest, SeekLandsOnVisibleEntry) {
  auto* in = new TestIter({{IKey("a", 5), "a"},
                           {IKey("m", 99), "too-new"},
                           {IKey("m", 5), "m-old"},
                           {IKey("z", 5), "z"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 10));
  iter->Seek("m");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("m", iter->key().ToString());
  EXPECT_EQ("m-old", iter->value().ToString());
}

TEST(DbIterTest, DeletionResurrectedByNewerPut) {
  auto* in = new TestIter({{IKey("k", 30), "revived"},
                           {IKey("k", 20, kTypeDeletion), ""},
                           {IKey("k", 10), "original"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 100));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("revived", iter->value().ToString());
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST(DbIterTest, SeekToLastAndPrev) {
  auto* in = new TestIter({{IKey("a", 5), "a5"},
                           {IKey("b", 30, kTypeDeletion), ""},
                           {IKey("b", 20), "b20"},
                           {IKey("c", 15), "c15"},
                           {IKey("c", 5), "c5"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 100));
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("c", iter->key().ToString());
  EXPECT_EQ("c15", iter->value().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", iter->key().ToString()) << "b is tombstoned";
  EXPECT_EQ("a5", iter->value().ToString());
  iter->Prev();
  EXPECT_FALSE(iter->Valid());
}

TEST(DbIterTest, DirectionSwitches) {
  auto* in = new TestIter({{IKey("a", 1), "a"},
                           {IKey("b", 1), "b"},
                           {IKey("c", 1), "c"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 100));
  iter->SeekToFirst();
  iter->Next();  // at b
  ASSERT_EQ("b", iter->key().ToString());
  iter->Prev();  // back to a
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", iter->key().ToString());
  iter->Next();  // forward again to b
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("b", iter->key().ToString());
  iter->Next();
  ASSERT_EQ("c", iter->key().ToString());
  iter->Prev();
  EXPECT_EQ("b", iter->key().ToString());
}

TEST(DbIterTest, ReverseSeesNewestVisibleVersion) {
  auto* in = new TestIter({{IKey("k", 50), "too-new"},
                           {IKey("k", 10), "visible"},
                           {IKey("z", 5), "z"}});
  std::unique_ptr<Iterator> iter(NewDBIterator(in, 20));
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("z", iter->key().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k", iter->key().ToString());
  EXPECT_EQ("visible", iter->value().ToString());
}

// ---------------------------------------------------------------------------
// Merging iterator

TEST(MergingIteratorTest, InterleavesSortedStreams) {
  InternalKeyComparator cmp;
  std::vector<Iterator*> children = {
      new TestIter({{IKey("a", 1), "1"}, {IKey("c", 1), "3"}}),
      new TestIter({{IKey("b", 1), "2"}, {IKey("d", 1), "4"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&cmp, children.data(), 2));
  std::string got;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    got += merged->value().ToString();
  }
  EXPECT_EQ("1234", got);
}

TEST(MergingIteratorTest, BidirectionalSwitch) {
  InternalKeyComparator cmp;
  std::vector<Iterator*> children = {
      new TestIter({{IKey("a", 1), "a"}, {IKey("c", 1), "c"}}),
      new TestIter({{IKey("b", 1), "b"}, {IKey("d", 1), "d"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&cmp, children.data(), 2));
  merged->SeekToFirst();
  merged->Next();  // at b
  ASSERT_EQ("b", merged->value().ToString());
  merged->Prev();  // direction switch back to a
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("a", merged->value().ToString());
  merged->Next();
  EXPECT_EQ("b", merged->value().ToString());
}

TEST(MergingIteratorTest, SeekAcrossChildren) {
  InternalKeyComparator cmp;
  std::vector<Iterator*> children = {
      new TestIter({{IKey("a", 1), "a"}, {IKey("z", 1), "z"}}),
      new TestIter({{IKey("m", 1), "m"}}),
  };
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&cmp, children.data(), 2));
  merged->Seek(IKey("g", kMaxSequenceNumber));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("m", merged->value().ToString());
}

// ---------------------------------------------------------------------------
// Manifest round trips

TEST(ManifestTest, EditEncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.SetLogNumber(7);
  edit.SetNextFileNumber(42);
  edit.SetNextNodeId(99);
  edit.SetLastSequence(123456789);
  edit.SetNumLevels(5);
  NodeEdit node;
  node.level = 3;
  node.node_id = 17;
  node.file_number = 20;
  node.meta_end = 4096;
  node.data_bytes = 3000;
  node.num_entries = 10;
  node.seq_count = 2;
  node.range_lo = "aaa";
  node.range_hi = "zzz";
  node.smallest_ikey = IKey("aaa", 1);
  node.largest_ikey = IKey("zzz", 9);
  edit.AddNode(node);
  edit.RemoveNode(2, 13);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(7u, *decoded.log_number());
  EXPECT_EQ(42u, *decoded.next_file_number());
  EXPECT_EQ(99u, *decoded.next_node_id());
  EXPECT_EQ(123456789u, *decoded.last_sequence());
  EXPECT_EQ(5, *decoded.num_levels());
  ASSERT_EQ(1u, decoded.added().size());
  EXPECT_EQ(17u, decoded.added()[0].node_id);
  EXPECT_EQ("zzz", decoded.added()[0].range_hi);
  ASSERT_EQ(1u, decoded.removed().size());
  EXPECT_EQ(13u, decoded.removed()[0].second);
}

TEST(ManifestTest, CreateAppendRecover) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("/m").ok());
  ManifestWriter writer(&env, "/m");

  VersionEdit base;
  base.SetLogNumber(3);
  base.SetNextFileNumber(10);
  base.SetNumLevels(2);
  NodeEdit n1;
  n1.level = 0;
  n1.node_id = 1;
  n1.file_number = 4;
  n1.range_lo = "a";
  n1.range_hi = "m";
  base.AddNode(n1);
  ASSERT_TRUE(writer.Create(9, base).ok());

  // Append: n1 replaced by n2 (an MSTable append is remove+add).
  VersionEdit edit;
  edit.RemoveNode(0, 1);
  NodeEdit n2 = n1;
  n2.node_id = 1;
  n2.meta_end = 777;
  n2.seq_count = 2;
  edit.AddNode(n2);
  NodeEdit n3;
  n3.level = 1;
  n3.node_id = 2;
  n3.file_number = 5;
  n3.range_lo = "n";
  n3.range_hi = "z";
  edit.AddNode(n3);
  ASSERT_TRUE(writer.Append(edit, true).ok());

  RecoveredState state;
  ASSERT_TRUE(RecoverManifest(&env, "/m", &state).ok());
  EXPECT_EQ(3u, state.log_number);
  EXPECT_EQ(10u, state.next_file_number);
  EXPECT_EQ(2, state.num_levels);
  ASSERT_EQ(2u, state.nodes.size());
  ASSERT_EQ(1u, state.nodes[0].size());
  EXPECT_EQ(777u, state.nodes[0][0].meta_end);  // update applied
  EXPECT_EQ(2u, state.nodes[0][0].seq_count);
  ASSERT_EQ(1u, state.nodes[1].size());
  EXPECT_EQ(2u, state.nodes[1][0].node_id);
}

TEST(ManifestTest, RecoverFailsWithoutCurrent) {
  MemEnv env;
  RecoveredState state;
  EXPECT_FALSE(RecoverManifest(&env, "/nope", &state).ok());
}

// ---------------------------------------------------------------------------
// Filenames

TEST(FileNameTest, FormatAndParseRoundTrip) {
  uint64_t number;
  FileType type;

  ASSERT_TRUE(ParseFileName("000123.log", &number, &type));
  EXPECT_EQ(123u, number);
  EXPECT_EQ(FileType::kLogFile, type);

  ASSERT_TRUE(ParseFileName("000007.mst", &number, &type));
  EXPECT_EQ(FileType::kTableFile, type);

  ASSERT_TRUE(ParseFileName("MANIFEST-000004", &number, &type));
  EXPECT_EQ(4u, number);
  EXPECT_EQ(FileType::kManifestFile, type);

  ASSERT_TRUE(ParseFileName("CURRENT", &number, &type));
  EXPECT_EQ(FileType::kCurrentFile, type);

  EXPECT_FALSE(ParseFileName("garbage", &number, &type));
  EXPECT_FALSE(ParseFileName("123.unknown", &number, &type));
  EXPECT_FALSE(ParseFileName("MANIFEST-", &number, &type));
  EXPECT_FALSE(ParseFileName("MANIFEST-12x", &number, &type));
}

TEST(FileNameTest, SetCurrentPointsAtManifest) {
  MemEnv env;
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(SetCurrentFile(&env, "/d", 42).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, "/d/CURRENT", &contents).ok());
  EXPECT_EQ("MANIFEST-000042\n", contents);
}

// ---------------------------------------------------------------------------
// Snapshot list

TEST(SnapshotListTest, OldestNewestOrdering) {
  SnapshotList list;
  EXPECT_TRUE(list.empty());
  SnapshotImpl* s1 = list.New(10);
  SnapshotImpl* s2 = list.New(20);
  SnapshotImpl* s3 = list.New(30);
  EXPECT_EQ(10u, list.oldest()->sequence());
  EXPECT_EQ(30u, list.newest()->sequence());
  list.Delete(s1);
  EXPECT_EQ(20u, list.oldest()->sequence());
  list.Delete(s3);
  EXPECT_EQ(20u, list.newest()->sequence());
  list.Delete(s2);
  EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace iamdb
