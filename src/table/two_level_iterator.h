// TwoLevelIterator: composes an index iterator whose values name sub-
// iterators (data blocks, or nodes within a level).  Bidirectional.
#pragma once

#include <functional>

#include "table/iterator.h"

namespace iamdb {

// block_function turns an index value into the iterator over that entry's
// contents; it runs with `index_iter` positioned on that entry.  A
// sub-iterator that fails (non-OK status) ends the iteration in either
// direction: the two-level iterator turns invalid and reports its status.
Iterator* NewTwoLevelIterator(
    Iterator* index_iter,
    std::function<Iterator*(const Slice& index_value)> block_function);

}  // namespace iamdb
