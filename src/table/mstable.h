// MSTable (Multiple Sequence Table): the on-disk node of the LSA/IAM trees,
// and — with exactly one sequence — the SSTable of the leveled baseline.
//
// Two roles:
//  * MSTableWriter — write one sequence and then a clustered metadata region
//                    covering every sequence at the file's end: either a new
//                    node file, or an append to an existing node (the
//                    paper's append compaction, Sec 4), whose previous
//                    metadata region becomes a hole.
//  * MSTableReader — hold a node's metadata region in memory and serve
//                    point reads (newest sequence first, bloom-guarded) and
//                    merged scans.  A written node's reader comes from its
//                    writer, built from the region bytes Finish just
//                    appended; only a node recovered from the manifest is
//                    opened from the file (Open), at its recorded
//                    `meta_end`, with one read for the trailer and one for
//                    the rest of the region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "env/env.h"
#include "table/format.h"
#include "table/sequence_builder.h"
#include "table/sequence_reader.h"
#include "table/table_options.h"

namespace iamdb {

class MSTableReader;

// What a finished write/append looks like to the engine's metadata.
// The node's totals across ALL sequences (data bytes, entries, sequence
// count, smallest/largest internal key) are the reader's.
struct MSTableBuildResult {
  uint64_t meta_end = 0;         // valid size: offset just past the trailer
  uint64_t new_data_bytes = 0;   // data bytes written by THIS operation
  uint64_t meta_bytes = 0;       // metadata bytes written by this operation
  // The node's reader at meta_end, built from the metadata bytes this
  // operation appended: the node is never read back to be opened.
  std::shared_ptr<MSTableReader> reader;
};

// Writes one sequence into a node file.  A new file (`existing` null)
// starts at offset 0 in the current format version.  An append (`existing`
// the node's reader) copies the prior sequences' metadata out, so the
// reader may be released before Finish, inherits the file's format version
// so one file never mixes block framings, and writes at the file's
// physical end; its previous metadata region is abandoned in place (a hole,
// reclaimed on merge/split) and a fresh region covering all sequences is
// written after the new data.  `cmp` and `file_number` are the finished
// node's reader's (file_number keys its blocks in the caches).
class MSTableWriter {
 public:
  MSTableWriter(Env* env, const TableOptions& options,
                const InternalKeyComparator* cmp, std::string fname,
                uint64_t file_number, const MSTableReader* existing = nullptr);
  ~MSTableWriter();

  MSTableWriter(const MSTableWriter&) = delete;
  MSTableWriter& operator=(const MSTableWriter&) = delete;

  Status Open();
  Status Add(const Slice& internal_key, const Slice& value);
  // Bytes of data blocks emitted so far (compactions cut output nodes on
  // this).
  uint64_t EstimatedDataBytes() const;
  // Writes the metadata region, then (after the sync, if asked, and the
  // close) opens the file for reading and hands the node's reader out in
  // result->reader.  A failure, the file's open included, cleans up as
  // Abandon() does.
  Status Finish(bool sync, MSTableBuildResult* result);
  // Error paths: a new file is removed; an append leaves the file readable
  // at its recorded meta_end (readers never look past it).  The destructor
  // abandons a writer that did not finish.
  void Abandon();

 private:
  struct PriorSequence {
    SequenceMeta meta;
    std::string index_contents;
    std::string bloom_contents;
  };

  Env* env_;
  const TableOptions options_;
  const InternalKeyComparator* cmp_;
  std::string fname_;
  uint64_t file_number_;
  const bool append_;
  uint32_t format_version_ = kCurrentFormatVersion;
  std::vector<PriorSequence> prior_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<SequenceBuilder> builder_;
  bool finished_ = false;
};

class MSTableReader {
 public:
  // Opens the node whose metadata trailer ends at `meta_end` (recorded in
  // the manifest; bytes past it are ignored): reads the region
  // [region_start, meta_end) and parses it as FromRegion does.
  static Status Open(Env* env, const TableOptions& options,
                     const InternalKeyComparator* cmp,
                     const std::string& fname, uint64_t file_number,
                     uint64_t meta_end,
                     std::shared_ptr<MSTableReader>* reader);

  MSTableReader(const MSTableReader&) = delete;
  MSTableReader& operator=(const MSTableReader&) = delete;

  int seq_count() const { return static_cast<int>(sequences_.size()); }
  // Format version from the trailer magic; appends inherit it so a file
  // never mixes block framings.
  uint32_t format_version() const { return format_version_; }
  // i = 0 is the OLDEST sequence; seq_count()-1 the newest.
  const SequenceReader& sequence(int i) const { return *sequences_[i]; }

  uint64_t total_data_bytes() const { return total_data_bytes_; }
  uint64_t total_entries() const { return total_entries_; }
  Slice smallest() const { return smallest_; }
  Slice largest() const { return largest_; }

  // Point lookup of `reqs`, pending requests sorted by internal key.  Each
  // sequence (newest first) is probed with the keys the younger sequences
  // left pending, stopping at the first version of each user key with
  // sequence <= its snapshot; per sequence the bloom filter and index are
  // consulted once per key and cache-missing data blocks are fetched with
  // one vectored read.  Per-key outcomes land in each request's
  // state/status.
  void MultiGet(const ReadOptions& options, MultiGetRequest* const* reqs,
                size_t count) const;

  // Merged iterator over all sequences (newest-first tie order).
  Iterator* NewIterator(const ReadOptions& options) const;

  // Iterators for each sequence, appended to *out (newest first).
  void AddSequenceIterators(const ReadOptions& options,
                            std::vector<Iterator*>* out) const;

 private:
  friend class MSTableWriter;

  MSTableReader() = default;

  // Builds the reader of `file`'s node from `region`, the file's bytes
  // [meta_end - region.size(), meta_end): index and bloom blocks,
  // descriptor, trailer.  Checks the trailer and bounds-checks every
  // handle.  Open parses what it read here; MSTableWriter::Finish parses
  // what it wrote.
  static Status FromRegion(const TableOptions& options,
                           const InternalKeyComparator* cmp,
                           const std::string& fname, uint64_t file_number,
                           uint64_t meta_end, const std::string& region,
                           std::unique_ptr<RandomAccessFile> file,
                           std::shared_ptr<MSTableReader>* reader);

  const InternalKeyComparator* cmp_ = nullptr;
  uint32_t format_version_ = kCurrentFormatVersion;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<std::unique_ptr<SequenceReader>> sequences_;
  uint64_t total_data_bytes_ = 0;
  uint64_t total_entries_ = 0;
  std::string smallest_, largest_;
};

}  // namespace iamdb
