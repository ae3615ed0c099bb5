// On-disk physical format shared by all tables.
//
// Block framing by format version (the version is whole-file, recorded via
// the trailer magic):
//   v1:  contents | crc32c(contents) (fixed32, masked)
//   v2:  payload | type(1B) | crc32c(payload|type) (fixed32, masked)
// addressed by a BlockHandle {offset, size-of-stored-payload}.  The v2 type
// byte is the block's CompressionType (table_options.h): kNone for raw
// bytes (all metadata blocks, and data blocks that fell back to raw),
// kColumnar/kLz for payloads that decompress to the logical block.
//
// MSTable file layout (the paper's Multiple Sequence Table, Sec 4.1):
//
//   [seq 0 data blocks][seq 1 data blocks] ... | metadata region | trailer
//
// Each *append* writes the new sequence's data blocks at the end of the
// file, then a fresh metadata region describing ALL sequences (per-sequence
// index block + bloom block + descriptor list), then a fixed-size trailer.
// The previous metadata region becomes a dead zone inside the file — the
// moral equivalent of the paper's "hole"; it is reclaimed when the node is
// merged or split.  Metadata stays clustered so opening a node costs one
// contiguous read.
//
// The manifest records `meta_end` (offset just past the trailer) for each
// node version, so a crash mid-append is invisible: recovery reads the
// trailer at the recorded offset and garbage past it is ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "table/table_options.h"
#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace iamdb {

// Table format versions.  v1 files (and files appended to v1 files) keep
// the 4-byte block trailer and raw blocks; new files are written v2.
constexpr uint32_t kFormatVersion1 = 1;
constexpr uint32_t kFormatVersion2 = 2;
constexpr uint32_t kCurrentFormatVersion = kFormatVersion2;

// Bytes following a block's stored payload: the masked CRC, plus the
// one-byte compression-type tag from v2 on.
inline uint64_t BlockTrailerSize(uint32_t format_version) {
  return format_version >= kFormatVersion2 ? 5 : 4;
}

class BlockHandle {
 public:
  BlockHandle() : offset_(0), size_(0) {}
  BlockHandle(uint64_t offset, uint64_t size) : offset_(offset), size_(size) {}

  uint64_t offset() const { return offset_; }
  uint64_t size() const { return size_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const {
    PutVarint64(dst, offset_);
    PutVarint64(dst, size_);
  }
  Status DecodeFrom(Slice* input) {
    if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
      return Status::OK();
    }
    return Status::Corruption("bad block handle");
  }

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Descriptor of one sorted sequence inside an MSTable.
struct SequenceMeta {
  BlockHandle index_handle;   // index block: last-key -> data BlockHandle
  BlockHandle bloom_handle;   // whole-sequence bloom filter
  uint64_t num_entries = 0;
  uint64_t data_bytes = 0;    // total size of this sequence's data blocks
  std::string smallest;       // internal keys
  std::string largest;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);
};

// Trailer at `meta_end - kSize`:
//   region_start | meta_handle (2 fixed64) | seq_count | magic | crc
// region_start is the file offset where this metadata region begins, so a
// reader fetches the whole clustered metadata with one contiguous read.
// The magic doubles as the format version: kMagic marks a v1 file (4-byte
// block trailers, raw blocks), kMagicV2 a v2 file (type-tagged framing).
struct MSTableTrailer {
  uint64_t region_start = 0;
  BlockHandle meta_handle;  // the descriptor block (list of SequenceMeta)
  uint32_t seq_count = 0;
  uint32_t format_version = kCurrentFormatVersion;

  static constexpr size_t kSize = 8 + 8 + 8 + 4 + 8 + 4;
  static constexpr uint64_t kMagic = 0x1a4d5462'69616d64ull;  // "iamdbMT"-ish
  static constexpr uint64_t kMagicV2 = 0x2a4d5462'69616d64ull;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& input);
};

// Verifies the trailer of a block already in memory: `data` must hold the
// stored payload (`payload_size` bytes) followed by the block trailer,
// exactly as read from the device.  Fills *type from the v2 tag (kNone on
// v1).  Shared by ReadBlockContents and the vectored MultiGet read path.
Status CheckBlockTrailer(const char* data, uint64_t payload_size,
                         uint32_t format_version, CompressionType* type);

// Reads the block named by `handle`, verifying its CRC, and reports the
// stored payload (still compressed when *type != kNone — the caller
// decompresses via DecompressBlock).  On success, *contents owns the bytes.
Status ReadBlockContents(RandomAccessFile* file, const BlockHandle& handle,
                         uint32_t format_version, std::string* contents,
                         CompressionType* type);

// Appends `contents | [type] | crc` to file and fills *handle (offset must
// be the current end of file, tracked by the caller).  v1 files require
// type == kNone.
Status WriteBlock(WritableFile* file, uint64_t offset, const Slice& contents,
                  uint32_t format_version, CompressionType type,
                  BlockHandle* handle);

}  // namespace iamdb
