// Block builder/reader tests including prefix-compression correctness and
// bidirectional iteration.
#include <gtest/gtest.h>

#include <map>

#include "core/dbformat.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/two_level_iterator.h"
#include "util/random.h"

namespace iamdb {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                 ValueType t = kTypeValue) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(user_key, seq, t));
  return r;
}

class BlockTest : public testing::Test {
 protected:
  // Builds a block from the (already sorted) entries.
  void Build(const std::vector<std::pair<std::string, std::string>>& entries,
             int restart_interval = 16) {
    BlockBuilder builder(restart_interval);
    for (const auto& [k, v] : entries) builder.Add(k, v);
    block_ = std::make_unique<Block>(builder.Finish().ToString());
  }

  Iterator* NewIterator() { return block_->NewIterator(&cmp_); }

  InternalKeyComparator cmp_;
  std::unique_ptr<Block> block_;
};

TEST_F(BlockTest, EmptyBlock) {
  Build({});
  std::unique_ptr<Iterator> iter(NewIterator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  iter->SeekToLast();
  EXPECT_FALSE(iter->Valid());
  iter->Seek(IKey("x"));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(BlockTest, ForwardScanSeesEverything) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.emplace_back(IKey(buf), "value" + std::to_string(i));
  }
  Build(entries);
  std::unique_ptr<Iterator> iter(NewIterator());
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(100, i);
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(BlockTest, BackwardScanSeesEverything) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 57; i++) {  // not a multiple of the restart interval
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.emplace_back(IKey(buf), std::to_string(i));
  }
  Build(entries, 8);
  std::unique_ptr<Iterator> iter(NewIterator());
  int i = 56;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), i--) {
    ASSERT_GE(i, 0);
    EXPECT_EQ(entries[i].first, iter->key().ToString());
  }
  EXPECT_EQ(-1, i);
}

TEST_F(BlockTest, SeekFindsExactAndSuccessor) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.emplace_back(IKey(buf), "v");
  }
  Build(entries, 4);
  std::unique_ptr<Iterator> iter(NewIterator());

  iter->Seek(IKey("key0050"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key0050", ExtractUserKey(iter->key()).ToString());

  // Odd key seeks to its successor.
  iter->Seek(IKey("key0051"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key0052", ExtractUserKey(iter->key()).ToString());

  // Before the first key.
  iter->Seek(IKey("aaaa"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key0000", ExtractUserKey(iter->key()).ToString());

  // Past the last key.
  iter->Seek(IKey("zzzz"));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(BlockTest, PrefixCompressionRoundTrip) {
  // Long shared prefixes exercise the shared/non_shared encoding.
  std::vector<std::pair<std::string, std::string>> entries;
  std::string prefix(200, 'p');
  for (int i = 0; i < 50; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%04d", i);
    entries.emplace_back(IKey(prefix + buf), std::string(i, 'x'));
  }
  Build(entries);
  std::unique_ptr<Iterator> iter(NewIterator());
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    EXPECT_EQ(entries[i].first, iter->key().ToString());
    EXPECT_EQ(entries[i].second, iter->value().ToString());
  }
  EXPECT_EQ(50, i);
}

TEST_F(BlockTest, RestartInterval1DisablesSharing) {
  std::vector<std::pair<std::string, std::string>> entries = {
      {IKey("aaa"), "1"}, {IKey("aab"), "2"}, {IKey("aac"), "3"}};
  Build(entries, 1);
  std::unique_ptr<Iterator> iter(NewIterator());
  iter->Seek(IKey("aab"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("2", iter->value().ToString());
}

TEST_F(BlockTest, SeekOrderingWithSequenceNumbers) {
  // Same user key, multiple versions: newest (highest seq) first.
  std::vector<std::pair<std::string, std::string>> entries = {
      {IKey("k", 30), "v30"}, {IKey("k", 20), "v20"}, {IKey("k", 10), "v10"}};
  Build(entries);
  std::unique_ptr<Iterator> iter(NewIterator());

  // Seek at snapshot 25: should find v20 (newest <= 25).
  iter->Seek(IKey("k", 25, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("v20", iter->value().ToString());

  // Seek at snapshot 100 finds v30.
  iter->Seek(IKey("k", 100, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("v30", iter->value().ToString());

  // Seek at snapshot 5 finds nothing for "k".
  iter->Seek(IKey("k", 5, kValueTypeForSeek));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(BlockTest, CorruptBlockYieldsErrorIterator) {
  Block bad(std::string("xy"));  // too short for the restart count
  std::unique_ptr<Iterator> iter(bad.NewIterator(&cmp_));
  EXPECT_FALSE(iter->Valid());
  EXPECT_FALSE(iter->status().ok());
}

// ---------------------------------------------------------------------------
// TwoLevelIterator over blocks (index block -> data blocks), incl. empty
// sub-blocks and bidirectional traversal.

TEST_F(BlockTest, TwoLevelIteratorComposesBlocks) {
  // Three "data blocks" of 10 keys each, addressed 0..2; the index block
  // maps each block's last key to its id.
  std::vector<std::unique_ptr<Block>> data_blocks;
  BlockBuilder index_builder(1);
  for (int b = 0; b < 3; b++) {
    BlockBuilder builder(4);
    std::string last;
    for (int i = 0; i < 10; i++) {
      last = IKey("key" + std::to_string(b * 10 + i + 100));
      builder.Add(last, std::string("v").append(std::to_string(b * 10 + i)));
    }
    data_blocks.push_back(
        std::make_unique<Block>(builder.Finish().ToString()));
    index_builder.Add(last, std::string(1, static_cast<char>('0' + b)));
  }
  Block index_block(index_builder.Finish().ToString());

  auto* cmp = &cmp_;
  auto& blocks = data_blocks;
  std::unique_ptr<Iterator> iter(NewTwoLevelIterator(
      index_block.NewIterator(cmp),
      [&blocks, cmp](const Slice& index_value) -> Iterator* {
        int id = index_value[0] - '0';
        if (id < 0 || id > 2) return NewErrorIterator(Status::Corruption(""));
        return blocks[id]->NewIterator(cmp);
      }));

  // Full forward pass: 30 entries in order.
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    EXPECT_EQ(std::string("v").append(std::to_string(count)),
              iter->value().ToString());
  }
  EXPECT_EQ(30, count);

  // Seek into the middle block.
  iter->Seek(IKey("key115"));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("v15", iter->value().ToString());

  // Cross-block Next/Prev.
  iter->Seek(IKey("key119"));  // last of block 1
  ASSERT_TRUE(iter->Valid());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("v20", iter->value().ToString());  // first of block 2
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("v19", iter->value().ToString());

  // Backward full pass.
  count = 29;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), count--) {
    EXPECT_EQ(std::string("v").append(std::to_string(count)),
              iter->value().ToString());
  }
  EXPECT_EQ(-1, count);
}

TEST_F(BlockTest, TwoLevelIteratorSkipsEmptyBlocks) {
  // Middle block is empty: forward and backward traversal must hop it.
  BlockBuilder empty(4);
  Block empty_block(empty.Finish().ToString());
  BlockBuilder b0(4), b2(4);
  b0.Add(IKey("a"), "va");
  b2.Add(IKey("z"), "vz");
  Block block0(b0.Finish().ToString());
  Block block2(b2.Finish().ToString());

  BlockBuilder index_builder(1);
  index_builder.Add(IKey("a"), "0");
  index_builder.Add(IKey("m"), "1");  // empty
  index_builder.Add(IKey("z"), "2");
  Block index_block(index_builder.Finish().ToString());

  auto* cmp = &cmp_;
  std::unique_ptr<Iterator> iter(NewTwoLevelIterator(
      index_block.NewIterator(cmp),
      [&, cmp](const Slice& index_value) -> Iterator* {
        switch (index_value[0]) {
          case '0': return block0.NewIterator(cmp);
          case '1': return empty_block.NewIterator(cmp);
          default: return block2.NewIterator(cmp);
        }
      }));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("va", iter->value().ToString());
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("vz", iter->value().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("va", iter->value().ToString());
  iter->Next();
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(BlockTest, RandomizedMixedOperations) {
  Random rnd(1234);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    std::string key = IKey("key" + std::to_string(10000 + rnd.Uniform(100000)));
    model[key] = std::string("v").append(std::to_string(i));
  }
  std::vector<std::pair<std::string, std::string>> entries(model.begin(),
                                                           model.end());
  // model is keyed by encoded internal key; std::map's bytewise order
  // matches internal-key order here because all sequences are equal.
  Build(entries, 7);
  std::unique_ptr<Iterator> iter(NewIterator());
  for (int trial = 0; trial < 200; trial++) {
    std::string probe =
        IKey("key" + std::to_string(10000 + rnd.Uniform(100000)));
    iter->Seek(probe);
    auto it = model.lower_bound(probe);
    if (it == model.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(it->first, iter->key().ToString());
      EXPECT_EQ(it->second, iter->value().ToString());
    }
  }
}

}  // namespace
}  // namespace iamdb
