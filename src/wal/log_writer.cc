#include "wal/log_writer.h"

#include <cassert>
#include <cstdint>

#include "util/coding.h"
#include "util/crc32c.h"

namespace iamdb::log {

Writer::Writer(WritableFile* dest, uint64_t dest_length)
    : dest_(dest), block_offset_(dest_length % kBlockSize) {
  for (int i = 0; i <= kMaxRecordType; i++) {
    char t = static_cast<char>(i);
    type_crc_[i] = crc32c::Value(&t, 1);
  }
}

Status Writer::AddRecord(const Slice& slice) {
  const char* ptr = slice.data();
  size_t left = slice.size();

  Status s;
  bool begin = true;
  do {
    const int leftover = kBlockSize - block_offset_;
    assert(leftover >= 0);
    if (leftover < kHeaderSize) {
      // Too small for a header: pad the block tail with zeros.
      if (leftover > 0) {
        s = dest_->Append(Slice("\x00\x00\x00\x00\x00\x00", leftover));
        if (!s.ok()) return s;
      }
      block_offset_ = 0;
    }

    const size_t avail = kBlockSize - block_offset_ - kHeaderSize;
    const size_t fragment_length = (left < avail) ? left : avail;

    RecordType type;
    const bool end = (left == fragment_length);
    if (begin && end) {
      type = kFullType;
    } else if (begin) {
      type = kFirstType;
    } else if (end) {
      type = kLastType;
    } else {
      type = kMiddleType;
    }

    s = EmitPhysicalRecord(type, ptr, fragment_length);
    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (s.ok() && left > 0);
  // One flush per record: its padding, headers and fragments reach the
  // file beneath together, and before AddRecord returns.
  if (s.ok()) s = dest_->Flush();
  return s;
}

Status Writer::EmitPhysicalRecord(RecordType t, const char* ptr,
                                  size_t length) {
  assert(length <= 0xffff);
  assert(block_offset_ + kHeaderSize + static_cast<int>(length) <= kBlockSize);

  char buf[kHeaderSize];
  buf[4] = static_cast<char>(length & 0xff);
  buf[5] = static_cast<char>(length >> 8);
  buf[6] = static_cast<char>(t);

  uint32_t crc = crc32c::Extend(type_crc_[t], ptr, length);
  EncodeFixed32(buf, crc32c::Mask(crc));

  Status s = dest_->Append(Slice(buf, kHeaderSize));
  if (s.ok()) s = dest_->Append(Slice(ptr, length));
  block_offset_ += kHeaderSize + length;
  return s;
}

}  // namespace iamdb::log
