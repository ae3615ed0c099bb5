#include "core/compaction_stream.h"

namespace iamdb {

void CompactionStream::SkipDropped() {
  for (; input_->Valid(); input_->Next()) {
    ParsedInternalKey ikey;
    if (!ParseInternalKey(input_->key(), &ikey)) {
      // Unparsable key: emit verbatim so corruption is preserved, visible
      // and debuggable rather than silently dropped.
      has_last_user_key_ = false;
      last_sequence_for_key_ = kMaxSequenceNumber;
      return;
    }
    if (!has_last_user_key_ || ikey.user_key != Slice(last_user_key_)) {
      // First occurrence (newest version) of this user key.
      last_user_key_.assign(ikey.user_key.data(), ikey.user_key.size());
      has_last_user_key_ = true;
      last_sequence_for_key_ = kMaxSequenceNumber;
    }

    // Shadowed: a newer version visible to every snapshot exists.  Or a
    // tombstone with nothing deeper to shadow and invisible to no one.
    const bool drop =
        last_sequence_for_key_ <= smallest_snapshot_ ||
        (ikey.type == kTypeDeletion && ikey.sequence <= smallest_snapshot_ &&
         bottommost_);
    last_sequence_for_key_ = ikey.sequence;
    if (!drop) return;
    dropped_++;
  }
}

}  // namespace iamdb
