// MergingIterator: k-way merge over child iterators, yielding their union
// in key order.  This is how multi-sequence MSTable nodes, levels and the
// whole tree are presented as one sorted stream (paper Sec 4.1: "a scan
// ... merges them to get the sorted result"), and how a ShardedDB
// presents its shards' user-key iterators as one.
#pragma once

#include "core/dbformat.h"
#include "table/iterator.h"

namespace iamdb {

// Takes ownership of children[0..n-1].  When two children are positioned on
// equal keys, the child with the smaller index wins first — callers order
// children newest-first so MVCC resolution in db_iter sees newest versions
// first (internal keys already embed the sequence number, so exact ties
// cannot occur across valid inputs).  A child that fails (non-OK status)
// ends the merge in either direction: the merging iterator turns invalid
// and reports that status, rather than yield the other children's records
// past the gap.
Iterator* NewMergingIterator(const InternalKeyComparator* comparator,
                             Iterator** children, int n);

// The same merge in bytewise (user-key) order, for children whose keys
// are disjoint, such as one DB iterator per shard.
Iterator* NewBytewiseMergingIterator(Iterator** children, int n);

}  // namespace iamdb
