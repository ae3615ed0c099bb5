// Checks that two MSTableReaders hold the same node: the reader an
// MSTableWriter hands out from Finish against MSTableReader::Open of the
// same file at the same meta_end.  Shared by the table tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "table/mstable.h"
#include "table_get.h"

namespace iamdb {

// The merged stream of `reader`'s records as (internal key, value) pairs.
inline std::vector<std::pair<std::string, std::string>> AllRecords(
    const MSTableReader& reader) {
  std::vector<std::pair<std::string, std::string>> records;
  std::unique_ptr<Iterator> iter(reader.NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    records.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  return records;
}

// Sequence count, format version, every SequenceMeta field, index and
// bloom bytes, key range, a full iteration and a lookup of every key.
inline void ExpectSameReader(const MSTableReader& handed,
                             const MSTableReader& opened) {
  ASSERT_EQ(opened.seq_count(), handed.seq_count());
  EXPECT_EQ(opened.format_version(), handed.format_version());
  for (int i = 0; i < opened.seq_count(); i++) {
    const SequenceReader& a = handed.sequence(i);
    const SequenceReader& b = opened.sequence(i);
    EXPECT_EQ(b.meta().index_handle.offset(), a.meta().index_handle.offset());
    EXPECT_EQ(b.meta().index_handle.size(), a.meta().index_handle.size());
    EXPECT_EQ(b.meta().bloom_handle.offset(), a.meta().bloom_handle.offset());
    EXPECT_EQ(b.meta().bloom_handle.size(), a.meta().bloom_handle.size());
    EXPECT_EQ(b.meta().num_entries, a.meta().num_entries);
    EXPECT_EQ(b.meta().data_bytes, a.meta().data_bytes);
    EXPECT_EQ(b.meta().smallest, a.meta().smallest);
    EXPECT_EQ(b.meta().largest, a.meta().largest);
    EXPECT_EQ(b.index_contents().ToString(), a.index_contents().ToString());
    EXPECT_EQ(b.bloom_contents().ToString(), a.bloom_contents().ToString());
  }
  EXPECT_EQ(opened.smallest().ToString(), handed.smallest().ToString());
  EXPECT_EQ(opened.largest().ToString(), handed.largest().ToString());
  EXPECT_EQ(opened.total_data_bytes(), handed.total_data_bytes());
  EXPECT_EQ(opened.total_entries(), handed.total_entries());

  const auto records = AllRecords(opened);
  EXPECT_EQ(records, AllRecords(handed));
  for (const auto& record : records) {
    const Slice user_key = ExtractUserKey(record.first);
    std::string a_value, b_value;
    MultiGetRequest::State a_state, b_state;
    TableGet(handed, user_key, kMaxSequenceNumber, &a_value, &a_state);
    TableGet(opened, user_key, kMaxSequenceNumber, &b_value, &b_state);
    EXPECT_EQ(b_state, a_state) << user_key.ToString();
    EXPECT_EQ(b_value, a_value) << user_key.ToString();
  }
}

}  // namespace iamdb
