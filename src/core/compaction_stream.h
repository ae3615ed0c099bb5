// CompactionStream: wraps a merged (internal-key-ordered) input and emits
// only the records that must survive a rewrite:
//  * for each user key, the newest version is always kept;
//  * older versions are kept only while they are the newest visible version
//    for some live snapshot (<= smallest_snapshot rule);
//  * deletion tombstones are additionally dropped when the output is the
//    bottommost data for the key (nothing deeper could be shadowed).
//
// This is the "merges eliminate outdated records" machinery (paper Secs 2,
// 5.3.3).  Appends bypass it entirely — which is exactly why append trees
// carry space amplification.
//
// Slice lifetime: the stream copies no record.  key() and value() are the
// input iterator's own slices (a memtable entry, or a block iterator's key
// buffer and block contents), valid until the next Next() or the stream's
// destruction and no longer.  A caller that needs a key past Next() copies
// it.  The only bytes the stream copies are the current user key, which
// the shadowing rule compares each following version against.
#pragma once

#include <memory>

#include "core/dbformat.h"
#include "table/iterator.h"

namespace iamdb {

class CompactionStream {
 public:
  // Takes ownership of `input`, which must yield internal keys in
  // increasing order (a MergingIterator output).
  CompactionStream(Iterator* input, SequenceNumber smallest_snapshot,
                   bool bottommost)
      : input_(input),
        smallest_snapshot_(smallest_snapshot),
        bottommost_(bottommost) {
    input_->SeekToFirst();
    SkipDropped();
  }

  // Starts the stream at the first record whose user key is >=
  // `start_user_key` instead of at the beginning.  The seek lands on the
  // NEWEST version of the boundary key (kMaxSequenceNumber sorts first),
  // so the per-key shadowing state begins exactly as a full scan would
  // when reaching that key — subrange outputs concatenate to the full
  // output (partitioned subcompactions rely on this).
  CompactionStream(Iterator* input, SequenceNumber smallest_snapshot,
                   bool bottommost, const Slice& start_user_key)
      : input_(input),
        smallest_snapshot_(smallest_snapshot),
        bottommost_(bottommost) {
    std::string seek_key;
    AppendInternalKey(&seek_key, ParsedInternalKey(start_user_key,
                                                   kMaxSequenceNumber,
                                                   kValueTypeForSeek));
    input_->Seek(Slice(seek_key));
    SkipDropped();
  }

  bool Valid() const { return input_->Valid(); }
  // Valid until the next Next(); see "Slice lifetime" above.
  Slice key() const { return input_->key(); }
  Slice value() const { return input_->value(); }
  void Next() {
    input_->Next();
    SkipDropped();
  }
  Status status() const { return input_->status(); }

  uint64_t entries_dropped() const { return dropped_; }

 private:
  // Steps the input past every record that must not survive, leaving it
  // on the next record to emit (or exhausted).
  void SkipDropped();

  std::unique_ptr<Iterator> input_;
  const SequenceNumber smallest_snapshot_;
  const bool bottommost_;

  std::string last_user_key_;
  bool has_last_user_key_ = false;
  // Sequence of the last emitted-or-dropped entry <= smallest_snapshot for
  // last_user_key_ (kMaxSequenceNumber when none seen yet).
  SequenceNumber last_sequence_for_key_ = kMaxSequenceNumber;
  uint64_t dropped_ = 0;
};

}  // namespace iamdb
