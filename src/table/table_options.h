// Knobs for the physical table layer, shared by both engines.
#pragma once

#include <cstddef>
#include <cstdint>

namespace iamdb {

class LruCache;
struct CompressionStats;

// Per-block codec recorded in the one-byte type tag of format-v2 block
// trailers (docs/FORMAT.md).  Values are on-disk and must not change.
enum class CompressionType : uint8_t {
  kNone = 0,      // raw block bytes (also the per-block fallback)
  kColumnar = 1,  // column-split codec for fixed-size YCSB-style records
  kLz = 2,        // general-purpose LZ77 byte codec
};

struct TableOptions {
  // Target uncompressed size of a data block (paper: records are
  // partitioned into 4KB blocks).
  size_t block_size = 4096;

  // Keys between restart points for prefix compression.
  int block_restart_interval = 16;

  // Bloom bits per key; paper Sec 6.1 uses 14 (=> ~0.2% false positives).
  int bloom_bits_per_key = 14;

  // Per-block codec for newly written data blocks.  Blocks that do not
  // shrink to 7/8 of their size or less are stored raw; metadata blocks
  // are always raw.  Appends to a format-v1 file stay raw regardless, so
  // one file never mixes framing versions.
  CompressionType compression = CompressionType::kNone;

  // Block cache, or nullptr to read through.  Not owned.  Entries are
  // charged at their uncompressed (resident) size.
  LruCache* block_cache = nullptr;

  // Second cache tier holding still-compressed block bytes (charged at
  // stored size).  An uncompressed-tier miss that hits here decompresses
  // from memory instead of re-reading the device.  nullptr = tier off.
  // Not owned.
  LruCache* compressed_block_cache = nullptr;

  // Compression/decompression counters, shared across all tables of a DB
  // (see stats in core/db.h).  Not owned; may be nullptr.
  CompressionStats* compression_stats = nullptr;
};

}  // namespace iamdb
