#include "table/format.h"

#include "util/crc32c.h"

namespace iamdb {

void SequenceMeta::EncodeTo(std::string* dst) const {
  index_handle.EncodeTo(dst);
  bloom_handle.EncodeTo(dst);
  PutVarint64(dst, num_entries);
  PutVarint64(dst, data_bytes);
  PutLengthPrefixedSlice(dst, smallest);
  PutLengthPrefixedSlice(dst, largest);
}

Status SequenceMeta::DecodeFrom(Slice* input) {
  Status s = index_handle.DecodeFrom(input);
  if (s.ok()) s = bloom_handle.DecodeFrom(input);
  if (!s.ok()) return s;
  Slice sm, lg;
  if (!GetVarint64(input, &num_entries) || !GetVarint64(input, &data_bytes) ||
      !GetLengthPrefixedSlice(input, &sm) ||
      !GetLengthPrefixedSlice(input, &lg)) {
    return Status::Corruption("bad sequence meta");
  }
  smallest = sm.ToString();
  largest = lg.ToString();
  return Status::OK();
}

void MSTableTrailer::EncodeTo(std::string* dst) const {
  PutFixed64(dst, region_start);
  PutFixed64(dst, meta_handle.offset());
  PutFixed64(dst, meta_handle.size());
  PutFixed32(dst, seq_count);
  PutFixed64(dst, format_version >= kFormatVersion2 ? kMagicV2 : kMagic);
  uint32_t crc = crc32c::Value(dst->data() + dst->size() - (kSize - 4),
                               kSize - 4);
  PutFixed32(dst, crc32c::Mask(crc));
}

Status MSTableTrailer::DecodeFrom(const Slice& input) {
  if (input.size() < kSize) return Status::Corruption("trailer too short");
  const char* p = input.data() + input.size() - kSize;
  uint64_t magic = DecodeFixed64(p + 28);
  if (magic == kMagic) {
    format_version = kFormatVersion1;
  } else if (magic == kMagicV2) {
    format_version = kFormatVersion2;
  } else {
    return Status::Corruption("bad table magic");
  }
  uint32_t expected = crc32c::Unmask(DecodeFixed32(p + 36));
  uint32_t actual = crc32c::Value(p, kSize - 4);
  if (expected != actual) return Status::Corruption("trailer checksum");
  region_start = DecodeFixed64(p);
  meta_handle.set_offset(DecodeFixed64(p + 8));
  meta_handle.set_size(DecodeFixed64(p + 16));
  seq_count = DecodeFixed32(p + 24);
  return Status::OK();
}

Status CheckBlockTrailer(const char* data, uint64_t payload_size,
                         uint32_t format_version, CompressionType* type) {
  const size_t n = static_cast<size_t>(payload_size);
  const size_t trailer = static_cast<size_t>(BlockTrailerSize(format_version));
  *type = CompressionType::kNone;
  // The CRC covers payload + type tag (v2) or bare contents (v1).
  const size_t crc_covered = n + trailer - 4;
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(data + crc_covered));
  if (crc32c::Value(data, crc_covered) != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  if (format_version >= kFormatVersion2) {
    const uint8_t tag = static_cast<uint8_t>(data[n]);
    if (tag > static_cast<uint8_t>(CompressionType::kLz)) {
      return Status::Corruption("unknown block compression tag");
    }
    *type = static_cast<CompressionType>(tag);
  }
  return Status::OK();
}

Status ReadBlockContents(RandomAccessFile* file, const BlockHandle& handle,
                         uint32_t format_version, std::string* contents,
                         CompressionType* type) {
  const size_t n = static_cast<size_t>(handle.size());
  const size_t trailer = static_cast<size_t>(BlockTrailerSize(format_version));
  *type = CompressionType::kNone;
  contents->clear();
  contents->resize(n + trailer);
  Slice result;
  Status s =
      file->Read(handle.offset(), n + trailer, &result, contents->data());
  if (!s.ok()) return s;
  if (result.size() != n + trailer) {
    return Status::Corruption("truncated block read");
  }
  s = CheckBlockTrailer(result.data(), n, format_version, type);
  if (!s.ok()) return s;
  // The read may have landed elsewhere (mmap-style envs return internal
  // pointers); normalize into *contents.
  if (result.data() != contents->data()) {
    contents->assign(result.data(), n);
  } else {
    contents->resize(n);  // strip tag + crc
  }
  return Status::OK();
}

Status WriteBlock(WritableFile* file, uint64_t offset, const Slice& contents,
                  uint32_t format_version, CompressionType type,
                  BlockHandle* handle) {
  handle->set_offset(offset);
  handle->set_size(contents.size());
  Status s = file->Append(contents);
  if (!s.ok()) return s;
  if (format_version >= kFormatVersion2) {
    char trailer[5];
    trailer[0] = static_cast<char>(type);
    uint32_t crc = crc32c::Value(contents.data(), contents.size());
    crc = crc32c::Extend(crc, trailer, 1);
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    return file->Append(Slice(trailer, 5));
  }
  // v1 framing carries no type tag; compressed payloads are a v2 feature.
  if (type != CompressionType::kNone) {
    return Status::InvalidArgument("compressed block in v1 table");
  }
  char trailer[4];
  EncodeFixed32(trailer, crc32c::Mask(crc32c::Value(contents.data(),
                                                    contents.size())));
  return file->Append(Slice(trailer, 4));
}

}  // namespace iamdb
