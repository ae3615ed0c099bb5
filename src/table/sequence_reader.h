// SequenceReader: query interface over one sorted sequence of an MSTable.
// Index and bloom contents live in memory (the paper assumes all table
// metadata is cached); data blocks are fetched through the block cache,
// except by iterators opened with ReadOptions::fill_cache == false, which
// stream the sequence through a readahead window of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/dbformat.h"
#include "core/multiget.h"
#include "core/options.h"
#include "table/block.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/format.h"
#include "table/iterator.h"
#include "table/table_options.h"

namespace iamdb {

class SequenceReader {
 public:
  // `file` must outlive the reader (owned by the MSTableReader).
  // `format_version` comes from the table trailer and selects the block
  // framing (v2 blocks carry a compression-type tag).
  SequenceReader(const TableOptions& options, const InternalKeyComparator* cmp,
                 RandomAccessFile* file, uint64_t file_number,
                 SequenceMeta meta, std::string index_contents,
                 std::string bloom_contents,
                 uint32_t format_version = kCurrentFormatVersion);

  SequenceReader(const SequenceReader&) = delete;
  SequenceReader& operator=(const SequenceReader&) = delete;

  const SequenceMeta& meta() const { return meta_; }
  Slice index_contents() const { return index_block_.contents(); }
  Slice bloom_contents() const { return bloom_contents_; }

  // Bloom check on the user key; false means definitely absent.
  bool KeyMayMatch(const Slice& user_key) const;

  // Point lookup of `reqs`, sorted by internal key; resolved requests are
  // skipped.  Finds each key's newest entry with sequence <= its snapshot.
  // The bloom filter and in-memory index are consulted once per key; all
  // cache-missing data blocks are fetched with a single vectored ReadV
  // (adjacent blocks coalesce into one device read) and inserted into each
  // cache tier at most once.  Under options.cache_only nothing is read:
  // keys whose block missed both tiers get Status::Incomplete.  Requests
  // resolved here get state/status set; the rest stay pending for older
  // sequences/levels.
  void MultiGet(const ReadOptions& options, MultiGetRequest* const* reqs,
                size_t count) const;

  // Iterator over the full sequence (internal keys).  Under
  // options.fill_cache == false (and not cache_only) the iterator neither
  // probes nor fills the block cache: moving forward to a block outside its
  // window reads the next kReadaheadBytes of the sequence's data blocks in
  // one Read, and the blocks after it are served from that window.  A
  // backward step reads only the block it lands on.
  Iterator* NewIterator(const ReadOptions& options) const;

  // Bytes one forward refill of a streaming iterator reads (fewer at the
  // end of the sequence's data blocks, more for a larger block).
  static constexpr uint64_t kReadaheadBytes = 256 << 10;

 private:
  // A streaming iterator's window; see the .cc.
  struct Readahead;

  // Iterator over the block named by `index_value`: read through
  // `readahead` if it is non-null, else through ReadDataBlock.
  Iterator* NewBlockIterator(const ReadOptions& options, Readahead* readahead,
                             const Slice& index_value) const;
  // The block at `handle`, from the window of `readahead`, refilled first
  // if the block lies outside it and ahead of the last block served; a
  // block behind that is read alone.  Never touches the block cache.
  std::shared_ptr<const Block> ReadStreamedBlock(const ReadOptions& options,
                                                 Readahead* readahead,
                                                 const BlockHandle& handle,
                                                 Status* s) const;
  // Reads the window of `readahead` anew from `offset`, the start of a
  // block whose stored size plus trailer is `n`.
  Status Refill(Readahead* readahead, uint64_t offset, uint64_t n) const;
  // Looks `key` up in the uncompressed tier, then the compressed tier
  // (decompressing and promoting a hit).  False on a miss in both; true
  // otherwise, with *block null and *s set if decompression failed.
  bool LookupCachedBlock(const ReadOptions& options, const BlockCacheKey& key,
                         std::shared_ptr<const Block>* block, Status* s) const;
  // Cached block, else a device read (Status::Incomplete instead under
  // options.cache_only).
  std::shared_ptr<const Block> ReadDataBlock(const ReadOptions& options,
                                             const BlockHandle& handle,
                                             Status* s) const;
  // Final leg of a block fetch whose stored payload is already in memory:
  // optionally parks the compressed form in the compressed tier, then
  // decompresses and inserts into the uncompressed tier (both via
  // InsertIfAbsent so concurrent fillers never double-charge a block).
  // `from_compressed_tier` skips the compressed-tier insert.
  std::shared_ptr<const Block> FinishBlock(const ReadOptions& options,
                                           const BlockCacheKey& key,
                                           std::string&& stored,
                                           CompressionType type,
                                           bool from_compressed_tier,
                                           Status* s) const;
  // Resolves one request against a loaded data block.
  void ResolveInBlock(const Block& block, MultiGetRequest* req) const;

  const TableOptions options_;
  const InternalKeyComparator* cmp_;
  BloomFilterPolicy bloom_policy_;
  RandomAccessFile* file_;
  uint64_t file_number_;
  uint32_t format_version_;
  SequenceMeta meta_;
  std::string bloom_contents_;
  Block index_block_;
};

}  // namespace iamdb
