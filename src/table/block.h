// Block: immutable reader over a BlockBuilder-produced block, with a
// bidirectional iterator using the restart array for binary search.
#pragma once

#include <cstdint>
#include <string>

#include "core/dbformat.h"
#include "table/iterator.h"
#include "util/slice.h"

namespace iamdb {

class Block {
 public:
  // Takes ownership of the contents (moved in).
  explicit Block(std::string contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return data_.size(); }
  // The block's bytes as constructed (restart array included).
  Slice contents() const { return data_; }

  // Iterator keys are internal keys; comparison uses InternalKeyComparator.
  Iterator* NewIterator(const InternalKeyComparator* cmp) const;

 private:
  class Iter;

  std::string data_;
  uint32_t restart_offset_;  // offset of restart array
  uint32_t num_restarts_;
  bool malformed_ = false;
};

}  // namespace iamdb
