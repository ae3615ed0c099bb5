#include "table/sequence_builder.h"

#include <cassert>


namespace iamdb {

SequenceBuilder::SequenceBuilder(const TableOptions& options,
                                 WritableFile* file, uint64_t start_offset,
                                 uint32_t format_version)
    : options_(options),
      bloom_policy_(options.bloom_bits_per_key),
      file_(file),
      start_offset_(start_offset),
      offset_(start_offset),
      format_version_(format_version),
      compressor_(format_version >= kFormatVersion2
                      ? GetCompressor(options.compression)
                      : nullptr),
      data_block_(options.block_restart_interval),
      index_block_(1) {}

Status SequenceBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!finished_);
  if (!status_.ok()) return status_;
  assert(meta_.num_entries == 0 ||
         icmp_.Compare(internal_key, Slice(last_key_)) > 0);

  if (pending_index_entry_) {
    // First key of a new block: a short separator between the previous
    // block's last key and this key indexes the previous block.
    assert(data_block_.empty());
    icmp_.FindShortestSeparator(&last_key_, internal_key);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }

  if (meta_.num_entries == 0) {
    meta_.smallest.assign(internal_key.data(), internal_key.size());
  }
  last_key_.assign(internal_key.data(), internal_key.size());
  meta_.num_entries++;

  bloom_key_offsets_.push_back(bloom_keys_flat_.size());
  Slice user_key = ExtractUserKey(internal_key);
  bloom_keys_flat_.append(user_key.data(), user_key.size());

  data_block_.Add(internal_key, value);
  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    status_ = FlushDataBlock();
  }
  return status_;
}

Status SequenceBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  Slice contents = data_block_.Finish();

  // Compress, falling back to raw unless the block shrinks to 7/8 of its
  // size or less (or the codec declines the input outright): a block that
  // barely shrinks is not worth its decompress work on every read.
  constexpr double kMaxStoredFraction = 0.875;
  Slice stored = contents;
  CompressionType stored_type = CompressionType::kNone;
  if (compressor_ != nullptr) {
    if (compressor_->Compress(contents, &compressed_scratch_) &&
        static_cast<double>(compressed_scratch_.size()) <=
            static_cast<double>(contents.size()) * kMaxStoredFraction) {
      stored = Slice(compressed_scratch_);
      stored_type = compressor_->type();
    }
    if (options_.compression_stats != nullptr) {
      CompressionStats* cs = options_.compression_stats;
      cs->input_bytes.fetch_add(contents.size(), std::memory_order_relaxed);
      cs->stored_bytes.fetch_add(stored.size(), std::memory_order_relaxed);
      switch (stored_type) {
        case CompressionType::kColumnar:
          cs->columnar_blocks.fetch_add(1, std::memory_order_relaxed);
          break;
        case CompressionType::kLz:
          cs->lz_blocks.fetch_add(1, std::memory_order_relaxed);
          break;
        case CompressionType::kNone:
          cs->raw_fallback_blocks.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  }

  Status s = WriteBlock(file_, offset_, stored, format_version_, stored_type,
                        &pending_handle_);
  if (!s.ok()) return s;
  offset_ += stored.size() + BlockTrailerSize(format_version_);
  logical_bytes_ += contents.size() + BlockTrailerSize(format_version_);
  data_block_.Reset();
  pending_index_entry_ = true;
  return Status::OK();
}

Status SequenceBuilder::Finish() {
  assert(!finished_);
  finished_ = true;
  // Record the true largest key before FindShortSuccessor mutates last_key_.
  meta_.largest = last_key_;
  if (status_.ok()) status_ = FlushDataBlock();
  if (!status_.ok()) return status_;

  if (pending_index_entry_) {
    icmp_.FindShortSuccessor(&last_key_);
    std::string handle_encoding;
    pending_handle_.EncodeTo(&handle_encoding);
    index_block_.Add(last_key_, handle_encoding);
    pending_index_entry_ = false;
  }
  // last_key_ was mutated by FindShortSuccessor only after recording the
  // true largest key below.
  index_contents_ = index_block_.Finish().ToString();

  // Build the whole-sequence bloom over user keys.
  std::vector<Slice> keys;
  keys.reserve(bloom_key_offsets_.size());
  for (size_t i = 0; i < bloom_key_offsets_.size(); i++) {
    size_t begin = bloom_key_offsets_[i];
    size_t end = (i + 1 < bloom_key_offsets_.size())
                     ? bloom_key_offsets_[i + 1]
                     : bloom_keys_flat_.size();
    keys.emplace_back(bloom_keys_flat_.data() + begin, end - begin);
  }
  bloom_contents_.clear();
  bloom_policy_.CreateFilter(keys, &bloom_contents_);

  // Logical (uncompressed) bytes, not the physical offset delta: engines
  // size and split nodes on data_bytes, and logical accounting keeps those
  // decisions — hence tree shape and iamdb.tree-digest — identical across
  // codec settings.  Physical footprint is meta_end (space_used_bytes).
  meta_.data_bytes = logical_bytes_;
  return Status::OK();
}

}  // namespace iamdb
