#include "table/mstable.h"

#include <algorithm>
#include <cassert>

#include "env/buffered_writable_file.h"
#include "table/merging_iterator.h"

namespace iamdb {

namespace {

// Writes the clustered metadata region for `sequences` (index + bloom blocks
// in order, then the descriptor block, then the trailer) starting at file
// offset `region_start`.  Fills handles in-place and returns meta_end.
struct SequenceMetaInput {
  SequenceMeta meta;
  Slice index_contents;
  Slice bloom_contents;
};

Status WriteMetadataRegion(WritableFile* file, uint64_t region_start,
                           std::vector<SequenceMetaInput>* sequences,
                           uint32_t format_version, uint64_t* meta_end,
                           uint64_t* meta_bytes) {
  // Metadata blocks are always stored raw (kNone); only data blocks carry
  // compressed payloads.
  const uint64_t trailer_size = BlockTrailerSize(format_version);
  uint64_t offset = region_start;
  for (auto& seq : *sequences) {
    Status s = WriteBlock(file, offset, seq.index_contents, format_version,
                          CompressionType::kNone, &seq.meta.index_handle);
    if (!s.ok()) return s;
    offset += seq.index_contents.size() + trailer_size;
    s = WriteBlock(file, offset, seq.bloom_contents, format_version,
                   CompressionType::kNone, &seq.meta.bloom_handle);
    if (!s.ok()) return s;
    offset += seq.bloom_contents.size() + trailer_size;
  }

  std::string descriptor;
  PutVarint32(&descriptor, static_cast<uint32_t>(sequences->size()));
  for (const auto& seq : *sequences) {
    seq.meta.EncodeTo(&descriptor);
  }
  MSTableTrailer trailer;
  Status s = WriteBlock(file, offset, descriptor, format_version,
                        CompressionType::kNone, &trailer.meta_handle);
  if (!s.ok()) return s;
  offset += descriptor.size() + trailer_size;

  trailer.region_start = region_start;
  trailer.format_version = format_version;
  trailer.seq_count = static_cast<uint32_t>(sequences->size());
  std::string trailer_bytes;
  trailer.EncodeTo(&trailer_bytes);
  s = file->Append(trailer_bytes);
  if (!s.ok()) return s;
  offset += trailer_bytes.size();

  *meta_end = offset;
  *meta_bytes = offset - region_start;
  return Status::OK();
}

// Forwards every Append to `target` and keeps a copy of the bytes it took:
// the writer parses the metadata region it wrote from this copy.
class CapturingWritableFile final : public WritableFile {
 public:
  CapturingWritableFile(WritableFile* target, std::string* captured)
      : target_(target), captured_(captured) {}

  Status Append(const Slice& data) override {
    Status s = target_->Append(data);
    if (s.ok()) captured_->append(data.data(), data.size());
    return s;
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override { return target_->Sync(); }

 private:
  WritableFile* const target_;
  std::string* const captured_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MSTableWriter

MSTableWriter::MSTableWriter(Env* env, const TableOptions& options,
                             const InternalKeyComparator* cmp,
                             std::string fname, uint64_t file_number,
                             const MSTableReader* existing)
    : env_(env),
      options_(options),
      cmp_(cmp),
      fname_(std::move(fname)),
      file_number_(file_number),
      append_(existing != nullptr) {
  if (existing == nullptr) return;
  // A v1 file appended today stays v1 (raw blocks only).
  format_version_ = existing->format_version();
  prior_.reserve(existing->seq_count());
  for (int i = 0; i < existing->seq_count(); i++) {
    const SequenceReader& seq = existing->sequence(i);
    prior_.push_back(PriorSequence{seq.meta(),
                                   seq.index_contents().ToString(),
                                   seq.bloom_contents().ToString()});
  }
}

MSTableWriter::~MSTableWriter() {
  if (!finished_) Abandon();
}

Status MSTableWriter::Open() {
  uint64_t start_offset = 0;
  Status s;
  if (append_) {
    // O_APPEND semantics: writes land at the physical end of file, which
    // may be past the recorded meta_end if a previous append crashed before
    // its manifest record; the garbage gap is harmless.
    s = env_->GetFileSize(fname_, &start_offset);
    if (s.ok()) s = env_->NewAppendableFile(fname_, &file_);
  } else {
    s = env_->NewWritableFile(fname_, &file_);
  }
  if (!s.ok()) return s;
  // Blocks and their trailers reach the env in 64 KB writes.
  file_ = std::make_unique<BufferedWritableFile>(std::move(file_));
  builder_ = std::make_unique<SequenceBuilder>(options_, file_.get(),
                                               start_offset, format_version_);
  return Status::OK();
}

Status MSTableWriter::Add(const Slice& internal_key, const Slice& value) {
  return builder_->Add(internal_key, value);
}

uint64_t MSTableWriter::EstimatedDataBytes() const {
  // Logical (uncompressed) bytes: compactions cut output nodes on this, and
  // logical accounting keeps node boundaries identical across codecs.
  return builder_->logical_bytes();
}

Status MSTableWriter::Finish(bool sync, MSTableBuildResult* result) {
  assert(!finished_);
  Status s = builder_->Finish();
  std::string region;  // the metadata bytes appended, trailer included
  if (s.ok()) {
    std::vector<SequenceMetaInput> sequences;
    sequences.reserve(prior_.size() + 1);
    for (const auto& p : prior_) {
      sequences.push_back(
          SequenceMetaInput{p.meta, p.index_contents, p.bloom_contents});
    }
    sequences.push_back(SequenceMetaInput{builder_->meta(),
                                          builder_->index_contents(),
                                          builder_->bloom_contents()});
    CapturingWritableFile capture(file_.get(), &region);
    s = WriteMetadataRegion(&capture, builder_->end_offset(), &sequences,
                            format_version_, &result->meta_end,
                            &result->meta_bytes);
  }
  if (s.ok() && sync) s = file_->Sync();
  if (s.ok()) {
    s = file_->Close();
    file_.reset();
  }
  // The node's reader, parsed from the bytes just written exactly as Open
  // parses what it reads.
  std::unique_ptr<RandomAccessFile> file;
  if (s.ok()) s = env_->NewRandomAccessFile(fname_, &file);
  if (s.ok()) {
    s = MSTableReader::FromRegion(options_, cmp_, fname_, file_number_,
                                  result->meta_end, region, std::move(file),
                                  &result->reader);
  }
  if (!s.ok()) {
    Abandon();
    return s;
  }
  finished_ = true;
  result->new_data_bytes = builder_->meta().data_bytes;
  return Status::OK();
}

void MSTableWriter::Abandon() {
  if (finished_) return;
  finished_ = true;
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
  // A partial append past the recorded meta_end is invisible to readers,
  // and the next append starts after it.
  if (!append_) env_->RemoveFile(fname_);
}

// ---------------------------------------------------------------------------
// MSTableReader

Status MSTableReader::Open(Env* env, const TableOptions& options,
                           const InternalKeyComparator* cmp,
                           const std::string& fname, uint64_t file_number,
                           uint64_t meta_end,
                           std::shared_ptr<MSTableReader>* reader) {
  reader->reset();
  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;

  if (meta_end < MSTableTrailer::kSize) {
    return Status::Corruption("meta_end too small", fname);
  }

  // One read for the trailer, one for the rest of the clustered metadata
  // region.
  char trailer_space[MSTableTrailer::kSize];
  Slice trailer_input;
  s = file->Read(meta_end - MSTableTrailer::kSize, MSTableTrailer::kSize,
                 &trailer_input, trailer_space);
  if (!s.ok()) return s;
  MSTableTrailer trailer;
  s = trailer.DecodeFrom(trailer_input);
  if (!s.ok()) return s;

  if (trailer.region_start > meta_end - MSTableTrailer::kSize) {
    return Status::Corruption("bad metadata region", fname);
  }
  const uint64_t body_size =
      meta_end - MSTableTrailer::kSize - trailer.region_start;
  std::string region;
  region.reserve(body_size + MSTableTrailer::kSize);  // the trailer follows
  region.resize(body_size);
  Slice body;
  s = file->Read(trailer.region_start, body_size, &body, region.data());
  if (!s.ok()) return s;
  if (body.size() != body_size) {
    return Status::Corruption("truncated metadata region", fname);
  }
  if (body.data() != region.data()) region.assign(body.data(), body.size());
  region.append(trailer_input.data(), trailer_input.size());
  return FromRegion(options, cmp, fname, file_number, meta_end, region,
                    std::move(file), reader);
}

Status MSTableReader::FromRegion(const TableOptions& options,
                                 const InternalKeyComparator* cmp,
                                 const std::string& fname,
                                 uint64_t file_number, uint64_t meta_end,
                                 const std::string& region,
                                 std::unique_ptr<RandomAccessFile> file,
                                 std::shared_ptr<MSTableReader>* reader) {
  reader->reset();
  MSTableTrailer trailer;
  Status s = trailer.DecodeFrom(region);
  if (!s.ok()) return s;
  if (region.size() > meta_end ||
      trailer.region_start != meta_end - region.size()) {
    return Status::Corruption("bad metadata region", fname);
  }
  // Everything before the trailer.  Handles are absolute file offsets;
  // translate them into the region buffer.
  const uint64_t body_size = region.size() - MSTableTrailer::kSize;
  auto slice_of = [&](const BlockHandle& h, Slice* out) -> Status {
    if (h.offset() < trailer.region_start || h.size() > body_size ||
        h.offset() - trailer.region_start > body_size - h.size()) {
      return Status::Corruption("metadata handle out of region", fname);
    }
    *out = Slice(region.data() + (h.offset() - trailer.region_start),
                 h.size());
    return Status::OK();
  };

  Slice descriptor;
  s = slice_of(trailer.meta_handle, &descriptor);
  if (!s.ok()) return s;

  uint32_t count = 0;
  if (!GetVarint32(&descriptor, &count) || count != trailer.seq_count) {
    return Status::Corruption("bad sequence descriptor", fname);
  }

  auto result = std::shared_ptr<MSTableReader>(new MSTableReader());
  result->cmp_ = cmp;
  result->format_version_ = trailer.format_version;
  InternalKeyComparator icmp;
  for (uint32_t i = 0; i < count; i++) {
    SequenceMeta meta;
    s = meta.DecodeFrom(&descriptor);
    if (!s.ok()) return s;
    Slice index_contents, bloom_contents;
    s = slice_of(meta.index_handle, &index_contents);
    if (s.ok()) s = slice_of(meta.bloom_handle, &bloom_contents);
    if (!s.ok()) return s;
    result->total_data_bytes_ += meta.data_bytes;
    result->total_entries_ += meta.num_entries;
    if (meta.num_entries > 0) {
      if (result->smallest_.empty() ||
          icmp.Compare(meta.smallest, result->smallest_) < 0) {
        result->smallest_ = meta.smallest;
      }
      if (result->largest_.empty() ||
          icmp.Compare(meta.largest, result->largest_) > 0) {
        result->largest_ = meta.largest;
      }
    }
    result->sequences_.push_back(std::make_unique<SequenceReader>(
        options, cmp, file.get(), file_number, std::move(meta),
        index_contents.ToString(), bloom_contents.ToString(),
        trailer.format_version));
  }
  result->file_ = std::move(file);
  *reader = std::move(result);
  return Status::OK();
}

void MSTableReader::MultiGet(const ReadOptions& options,
                             MultiGetRequest* const* reqs,
                             size_t count) const {
  // Newest sequence first: the first version found with sequence <= the
  // lookup snapshot is the visible one (upper sequences hold newer data).
  // Each sequence skips the requests younger ones resolved.
  for (int i = seq_count() - 1; i >= 0; i--) {
    if (AllResolved(reqs, count)) return;
    sequences_[i]->MultiGet(options, reqs, count);
  }
}

Iterator* MSTableReader::NewIterator(const ReadOptions& options) const {
  std::vector<Iterator*> iters;
  AddSequenceIterators(options, &iters);
  return NewMergingIterator(cmp_, iters.data(),
                            static_cast<int>(iters.size()));
}

void MSTableReader::AddSequenceIterators(const ReadOptions& options,
                                         std::vector<Iterator*>* out) const {
  for (int i = seq_count() - 1; i >= 0; i--) {
    out->push_back(sequences_[i]->NewIterator(options));
  }
}

}  // namespace iamdb
