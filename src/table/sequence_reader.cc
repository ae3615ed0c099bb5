#include "table/sequence_reader.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory_resource>

#include "table/compressor.h"
#include "table/two_level_iterator.h"
#include "util/sync_point.h"

namespace iamdb {

SequenceReader::SequenceReader(const TableOptions& options,
                               const InternalKeyComparator* cmp,
                               RandomAccessFile* file, uint64_t file_number,
                               SequenceMeta meta, std::string index_contents,
                               std::string bloom_contents,
                               uint32_t format_version)
    : options_(options),
      cmp_(cmp),
      bloom_policy_(options.bloom_bits_per_key),
      file_(file),
      file_number_(file_number),
      format_version_(format_version),
      meta_(std::move(meta)),
      bloom_contents_(std::move(bloom_contents)),
      index_block_(std::move(index_contents)) {}

bool SequenceReader::KeyMayMatch(const Slice& user_key) const {
  return bloom_policy_.KeyMayMatch(user_key, bloom_contents_);
}

std::shared_ptr<const Block> SequenceReader::FinishBlock(
    const ReadOptions& options, const BlockCacheKey& key, std::string&& stored,
    CompressionType type, bool from_compressed_tier, Status* s) const {
  if (type != CompressionType::kNone && !from_compressed_tier &&
      options_.compressed_block_cache != nullptr && options.fill_cache) {
    auto cached = std::make_shared<CompressedBlock>();
    cached->data = stored;  // copy: `stored` is decompressed below
    cached->type = type;
    // The compressed tier is charged at stored (on-disk) size.  IfAbsent:
    // a concurrent reader that missed on the same block may have filled it
    // already; replacing would charge the block twice transiently and
    // churn the LRU.
    options_.compressed_block_cache->InsertIfAbsent(key, std::move(cached),
                                                    stored.size());
  }

  std::string contents = std::move(stored);
  if (type != CompressionType::kNone) {
    const auto start = std::chrono::steady_clock::now();
    std::string raw;
    *s = DecompressBlock(type, Slice(contents), &raw);
    if (!s->ok()) return nullptr;
    if (options_.compression_stats != nullptr) {
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      options_.compression_stats->decompressed_blocks.fetch_add(
          1, std::memory_order_relaxed);
      options_.compression_stats->decompress_micros.fetch_add(
          static_cast<uint64_t>(micros), std::memory_order_relaxed);
    }
    contents = std::move(raw);
  }

  auto block = std::make_shared<const Block>(std::move(contents));
  if (options_.block_cache != nullptr && options.fill_cache) {
    // Charge the uncompressed (resident) size, not the on-disk stored size:
    // the cache models memory, and a decompressed block occupies its full
    // logical size regardless of the codec.  Losing the fill race adopts
    // the resident copy so two lookups never hold two heap copies alive.
    return std::static_pointer_cast<const Block>(
        options_.block_cache->InsertIfAbsent(key, block, block->size()));
  }
  return block;
}

bool SequenceReader::LookupCachedBlock(const ReadOptions& options,
                                       const BlockCacheKey& key,
                                       std::shared_ptr<const Block>* block,
                                       Status* s) const {
  if (options_.block_cache != nullptr) {
    *block = CacheLookup<Block>(*options_.block_cache, key);
    if (*block != nullptr) return true;
  }
  // Uncompressed-tier miss: try the compressed tier before the device.
  if (options_.compressed_block_cache != nullptr) {
    auto compressed =
        CacheLookup<CompressedBlock>(*options_.compressed_block_cache, key);
    if (compressed != nullptr) {
      std::string stored(compressed->data);
      *block = FinishBlock(options, key, std::move(stored), compressed->type,
                           /*from_compressed_tier=*/true, s);
      return true;
    }
  }
  return false;
}

// The read-ahead window of one scan: the bytes of its last refill, file
// range [offset, offset + window.size()), and the forward run of blocks it
// is serving.  It belongs to the iterator (its block function holds it),
// not to the SequenceReader, which readers of the node share across
// threads; the buffer is reused across refills.  A copy (the block
// function is a std::function, which must be copyable) starts empty.
struct SequenceReader::Readahead {
  Readahead() = default;
  Readahead(const Readahead&) {}
  Readahead& operator=(const Readahead&) = delete;

  std::unique_ptr<Iterator> cursor;  // over the index: a window's extent
  uint64_t cursor_offset = 0;  // offset of the block the cursor stands on
  std::unique_ptr<char[]> buffer;
  size_t capacity = 0;
  uint64_t offset = 0;
  Slice window;
  uint64_t run_end = 0;    // just past the last block handed out
  uint64_t run_bytes = 0;  // bytes of the forward run ending there
};

Status SequenceReader::Refill(Readahead* ra, const Slice& index_key,
                              const BlockHandle& handle, uint64_t want) const {
  const uint64_t trailer = BlockTrailerSize(format_version_);
  const uint64_t offset = handle.offset();
  const uint64_t n = handle.size() + trailer;
  uint64_t end = offset + n;
  if (n < want) {
    // Whole blocks after this one, adjacent in the file, from the index.
    // The last refill of a run leaves the cursor on the block this one
    // starts at; otherwise it seeks to this block's own entry.  (A cursor
    // off its mark costs only read-ahead: the window holds this block
    // first, and then only blocks adjacent to it.)
    if (ra->cursor == nullptr) ra->cursor.reset(index_block_.NewIterator(cmp_));
    Iterator* cursor = ra->cursor.get();
    if (!cursor->Valid() || ra->cursor_offset != offset) {
      cursor->Seek(index_key);
    }
    for (cursor->Next(); cursor->Valid(); cursor->Next()) {
      Slice input = cursor->value();
      BlockHandle next;
      if (!next.DecodeFrom(&input).ok() || next.offset() != end ||
          end - offset >= want) {
        break;
      }
      end += next.size() + trailer;
    }
    ra->cursor_offset = end;
  }

  const size_t len = static_cast<size_t>(end - offset);
  if (len > ra->capacity) {
    // Room for the largest window at once, not one allocation per doubling.
    ra->capacity = std::max<size_t>(len, kScanReadaheadBytes + n);
    ra->buffer.reset(new char[ra->capacity]);
  }
  ra->window = Slice();
  IAMDB_SYNC_POINT("SequenceReader::Refill:BeforeRead");
  Slice result;
  Status s = file_->Read(offset, len, &result, ra->buffer.get());
  if (!s.ok()) return s;
  // The read may have landed elsewhere (mmap-style envs return internal
  // pointers); the window always lives in the buffer.
  if (result.data() != ra->buffer.get()) {
    std::memcpy(ra->buffer.get(), result.data(), result.size());
  }
  ra->offset = offset;
  ra->window = Slice(ra->buffer.get(), result.size());
  if (result.size() < n) return Status::Corruption("truncated block read");
  return Status::OK();
}

std::shared_ptr<const Block> SequenceReader::ReadAheadBlock(
    const ReadOptions& options, Readahead* ra, const Slice& index_key,
    const BlockHandle& handle, Status* s) const {
  const uint64_t offset = handle.offset();
  const uint64_t n = handle.size() + BlockTrailerSize(format_version_);
  // Bytes of the run this block extends: the blocks handed out one after
  // another, each adjacent to the last.  A jump or a backward step starts
  // a new run.
  const uint64_t run = offset == ra->run_end ? ra->run_bytes : 0;
  ra->run_end = offset + n;
  ra->run_bytes = run + n;

  const BlockCacheKey key{file_number_, offset};
  if (options.fill_cache) {
    std::shared_ptr<const Block> block;
    if (LookupCachedBlock(options, key, &block, s)) return block;
  }
  if (offset < ra->offset || offset + n > ra->offset + ra->window.size()) {
    // A scan reads about as much as its run has served, so its window
    // doubles while the run lasts, and the first block after a Seek or a
    // backward step is read alone.
    const uint64_t want = std::min(run, kScanReadaheadBytes);
    if (want <= n) {
      // One block: straight into its own buffer, leaving the window be.
      std::string stored;
      CompressionType type = CompressionType::kNone;
      *s = ReadBlockContents(file_, handle, format_version_, &stored, &type);
      if (!s->ok()) return nullptr;
      return FinishBlock(options, key, std::move(stored), type,
                         /*from_compressed_tier=*/false, s);
    }
    *s = Refill(ra, index_key, handle, want);
    if (!s->ok()) return nullptr;
  }

  const char* data = ra->window.data() + (offset - ra->offset);
  CompressionType type = CompressionType::kNone;
  *s = CheckBlockTrailer(data, handle.size(), format_version_, &type);
  if (!s->ok()) return nullptr;
  return FinishBlock(options, key,
                     std::string(data, static_cast<size_t>(handle.size())),
                     type, /*from_compressed_tier=*/false, s);
}

std::shared_ptr<const Block> SequenceReader::ImageBlock(
    const NodeData& image, const BlockHandle& handle, Status* s) const {
  // Overflow-safe: the handle comes from the file.
  const uint64_t trailer = BlockTrailerSize(format_version_);
  if (image.size < trailer || handle.size() > image.size - trailer ||
      handle.offset() > image.size - trailer - handle.size()) {
    *s = Status::Corruption("data block outside the node image");
    return nullptr;
  }
  const char* data = image.data.get() + handle.offset();
  CompressionType type = CompressionType::kNone;
  *s = CheckBlockTrailer(data, handle.size(), format_version_, &type);
  if (!s->ok()) return nullptr;
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  return FinishBlock(no_fill, {file_number_, handle.offset()},
                     std::string(data, static_cast<size_t>(handle.size())),
                     type, /*from_compressed_tier=*/false, s);
}

namespace {

// Iterator over `block`, which it pins for its lifetime; an error iterator
// with `s` if there is no block.
Iterator* PinnedBlockIterator(std::shared_ptr<const Block> block,
                              const InternalKeyComparator* cmp,
                              const Status& s) {
  if (block == nullptr) return NewErrorIterator(s);
  Iterator* iter = block->NewIterator(cmp);
  iter->RegisterCleanup([block]() mutable { block.reset(); });
  return iter;
}

}  // namespace

Iterator* SequenceReader::NewBlockIterator(const ReadOptions& options,
                                           Readahead* readahead,
                                           const Slice& index_key,
                                           const Slice& index_value) const {
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);

  std::shared_ptr<const Block> block;
  if (!options.cache_only) {
    block = ReadAheadBlock(options, readahead, index_key, handle, &s);
  } else if (!LookupCachedBlock(options, {file_number_, handle.offset()},
                                &block, &s)) {
    s = Status::Incomplete("block not in cache");
  }
  return PinnedBlockIterator(std::move(block), cmp_, s);
}

void SequenceReader::ResolveInBlock(const Block& block,
                                    MultiGetRequest* req) const {
  std::unique_ptr<Iterator> block_iter(block.NewIterator(cmp_));
  block_iter->Seek(req->lkey->internal_key());
  if (block_iter->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(block_iter->key(), &parsed)) {
      req->state = MultiGetRequest::State::kCorrupt;
      req->status = Status::Corruption("bad internal key in sequence");
      return;
    }
    if (parsed.user_key == req->lkey->user_key()) {
      if (parsed.type == kTypeValue) {
        req->value->assign(block_iter->value().data(),
                           block_iter->value().size());
        req->state = MultiGetRequest::State::kFound;
      } else {
        req->state = MultiGetRequest::State::kDeleted;
      }
    }
  }
  if (!block_iter->status().ok() && req->status.ok()) {
    req->status = block_iter->status();
  }
}

void SequenceReader::MultiGet(const ReadOptions& options,
                              MultiGetRequest* const* reqs,
                              size_t count) const {
  // Next request at or after `i` still pending and passing the bloom filter.
  auto next_candidate = [&](size_t i) {
    while (i < count && (reqs[i]->resolved() ||
                         !KeyMayMatch(reqs[i]->lkey->user_key()))) {
      ++i;
    }
    return i;
  };
  // Most sequences a lookup visits are ruled out by the bloom filter alone;
  // settle that before setting anything up.
  size_t i = next_candidate(0);
  if (i == count) return;

  // Keys mapped to the same data block share one Group; requests arrive in
  // internal-key order and the index is in key order, so same-block keys
  // are adjacent and block offsets ascend across groups.
  struct Group {
    BlockHandle handle;
    std::shared_ptr<const Block> block;
    Status error;
    std::string stored;    // device-read buffer on a cache miss
    size_t first_key = 0;  // range into `probe`
    size_t num_keys = 0;
  };
  // Per-call scratch lives in a stack arena, so a one-key lookup allocates
  // nothing here beyond what a cache miss needs; large batches spill to the
  // heap.
  alignas(std::max_align_t) std::byte arena[1024];
  std::pmr::monotonic_buffer_resource scratch(arena, sizeof(arena));
  std::pmr::vector<MultiGetRequest*> probe(&scratch);
  std::pmr::vector<Group> groups(&scratch);
  std::unique_ptr<Iterator> index_iter(index_block_.NewIterator(cmp_));
  for (; i < count; i = next_candidate(i + 1)) {
    MultiGetRequest* req = reqs[i];
    index_iter->Seek(req->lkey->internal_key());
    if (!index_iter->Valid()) {
      // Past the last block: the key is not in this sequence.
      if (!index_iter->status().ok() && req->status.ok()) {
        req->status = index_iter->status();
      }
      continue;
    }
    Slice input = index_iter->value();
    BlockHandle handle;
    Status s = handle.DecodeFrom(&input);
    if (!s.ok()) {
      req->status = s;
      continue;
    }
    if (groups.empty() || groups.back().handle.offset() != handle.offset()) {
      Group g;
      g.handle = handle;
      g.first_key = probe.size();
      groups.push_back(std::move(g));
    }
    probe.push_back(req);
    groups.back().num_keys++;
  }
  if (groups.empty()) return;

  // Cache probes per group; misses on both tiers queue for the device, each
  // read straight into its group's buffer.  A cache-only read leaves them
  // unread: their keys come back Incomplete.
  const uint64_t trailer = BlockTrailerSize(format_version_);
  std::pmr::vector<size_t> missing(&scratch);
  std::pmr::vector<ReadRequest> rr(&scratch);
  size_t total = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    Group& grp = groups[g];
    const BlockCacheKey key{file_number_, grp.handle.offset()};
    if (LookupCachedBlock(options, key, &grp.block, &grp.error)) continue;
    if (options.cache_only) {
      grp.error = Status::Incomplete("block not in cache");
      continue;
    }
    missing.push_back(g);
    grp.stored.resize(static_cast<size_t>(grp.handle.size() + trailer));
    ReadRequest r;
    r.offset = grp.handle.offset();
    r.n = grp.stored.size();
    r.scratch = grp.stored.data();
    rr.push_back(r);
    total += r.n;
  }

  // One vectored read covers every device-missing block of this sequence;
  // adjacent blocks coalesce into single device operations underneath.
  if (!rr.empty()) {
    file_->ReadV(rr.data(), rr.size());

    for (size_t i = 0; i < rr.size(); ++i) {
      Group& grp = groups[missing[i]];
      const size_t payload = static_cast<size_t>(grp.handle.size());
      Status s = rr[i].status;
      if (s.ok() && rr[i].result.size() != rr[i].n) {
        s = Status::Corruption("truncated block read");
      }
      CompressionType type = CompressionType::kNone;
      if (s.ok()) {
        s = CheckBlockTrailer(rr[i].result.data(), payload, format_version_,
                              &type);
      }
      if (s.ok()) {
        // The read may have landed elsewhere (mmap-style envs return
        // internal pointers); normalize into the buffer, minus the trailer.
        if (rr[i].result.data() != grp.stored.data()) {
          grp.stored.assign(rr[i].result.data(), payload);
        } else {
          grp.stored.resize(payload);
        }
        grp.block = FinishBlock(
            options, BlockCacheKey{file_number_, grp.handle.offset()},
            std::move(grp.stored), type, /*from_compressed_tier=*/false, &s);
      }
      if (grp.block == nullptr) grp.error = s;
    }
  }

  for (const Group& grp : groups) {
    if (grp.block == nullptr) {
      for (size_t k = grp.first_key; k < grp.first_key + grp.num_keys; ++k) {
        if (probe[k]->status.ok()) probe[k]->status = grp.error;
      }
      continue;
    }
    for (size_t k = grp.first_key; k < grp.first_key + grp.num_keys; ++k) {
      if (!probe[k]->resolved()) ResolveInBlock(*grp.block, probe[k]);
    }
  }
}

Iterator* SequenceReader::NewIterator(const ReadOptions& options) const {
  // The two-level iterator owns `index` and calls the block function with
  // it positioned on the entry of the block asked for.
  Iterator* index = index_block_.NewIterator(cmp_);
  return NewTwoLevelIterator(
      index, [this, options, index, readahead = Readahead()](
                 const Slice& index_value) mutable {
        return NewBlockIterator(options, &readahead, index->key(),
                                index_value);
      });
}

Iterator* SequenceReader::NewIterator(
    std::shared_ptr<const NodeData> image) const {
  return NewTwoLevelIterator(
      index_block_.NewIterator(cmp_),
      [this, image = std::move(image)](const Slice& index_value) {
        Slice input = index_value;
        BlockHandle handle;
        Status s = handle.DecodeFrom(&input);
        std::shared_ptr<const Block> block;
        if (s.ok()) block = ImageBlock(*image, handle, &s);
        return PinnedBlockIterator(std::move(block), cmp_, s);
      });
}

}  // namespace iamdb
