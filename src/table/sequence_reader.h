// SequenceReader: query interface over one sorted sequence of an MSTable.
// Index and bloom contents live in memory (the paper assumes all table
// metadata is cached).  Point reads fetch data blocks through the block
// cache; iterators read the sequence ahead through a window of their own
// (see NewIterator), which a cache-filling scan grows as its run lasts.
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

  // Iterator over the full sequence (internal keys).  Unless
  // options.cache_only, it reads the device through a window of its own:
  // a miss reads the block together with the adjacent blocks after it in
  // one read, and the blocks of that window are served from memory (a miss
  // that wants one block reads it straight into the block's own buffer).
  // Every block still passes its CRC check when it is served.
  //  - options.fill_cache (a scan): the iterator probes both cache tiers
  //    before the window and fills them only with blocks it serves.  The
  //    first miss after a Seek reads one block; each later miss in the same
  //    forward run of adjacent blocks reads about as many bytes as the run
  //    has served, so the window doubles up to kScanReadaheadBytes.
  //  - !options.fill_cache (compaction inputs, the tree digest, iamdb_dump):
  //    the iterator neither probes nor fills the caches, and every forward
  //    miss reads kReadaheadBytes.
  // A backward step reads only the block it lands on.  Under
  // options.cache_only a block that misses both tiers ends the iteration
  // with Status::Incomplete.
  Iterator* NewIterator(const ReadOptions& options) const;

  // Most bytes one refill of an iterator's window reads (fewer at the end
  // of the sequence's data blocks, more for a larger block).  A non-filling
  // iterator reads kReadaheadBytes per refill.  A scan's window stops
  // doubling at kScanReadaheadBytes: past that, each block a scan reads
  // but never serves costs CPU (on MemEnv a read is a memcpy) and saves
  // no seek it has not already saved; see EXPERIMENTS.md, "Scan
  // read-ahead".
  static constexpr uint64_t kReadaheadBytes = 256 << 10;
  static constexpr uint64_t kScanReadaheadBytes = 16 << 10;

 private:
  // An iterator's window; see the .cc.
  struct Readahead;

  // Iterator over the block named by `index_value`, whose index entry's key
  // is `index_key`: read through `readahead`, or under options.cache_only
  // from the caches alone (Status::Incomplete on a miss).
  Iterator* NewBlockIterator(const ReadOptions& options, Readahead* readahead,
                             const Slice& index_key,
                             const Slice& index_value) const;
  // The block at `handle`: from the caches (a cache-filling iterator), else
  // from the window of `readahead`, refilled first if the block is not in
  // it, or read alone when the refill would hold only this block.
  std::shared_ptr<const Block> ReadAheadBlock(const ReadOptions& options,
                                              Readahead* readahead,
                                              const Slice& index_key,
                                              const BlockHandle& handle,
                                              Status* s) const;
  // Reads the window of `readahead` anew: the block at `handle`, whose
  // index entry's key is `index_key`, and the adjacent blocks after it
  // while the window holds fewer than `want` bytes.
  Status Refill(Readahead* readahead, const Slice& index_key,
                const BlockHandle& handle, uint64_t want) const;
  // Looks `key` up in the uncompressed tier, then the compressed tier
  // (decompressing and promoting a hit).  False on a miss in both; true
  // otherwise, with *block null and *s set if decompression failed.
  bool LookupCachedBlock(const ReadOptions& options, const BlockCacheKey& key,
                         std::shared_ptr<const Block>* block, Status* s) const;
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
