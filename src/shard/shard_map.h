// Hash partitioning of the user keyspace across N independent DB
// instances, plus the small on-disk manifest (the SHARDMAP file) that
// pins the shard count and hash scheme at create time.
//
// The partition function is load-bearing persistent state: every key's
// owning shard is derived from it, so it can never change for an existing
// database (a different function would orphan every key in place).  The
// manifest records the scheme name so a future incompatible hash can be
// introduced under a new name instead of silently rehashing old data.
// See docs/SHARDING.md for the format and the resharding outlook.
#pragma once

#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace iamdb {

class Env;

struct ShardMap {
  uint32_t version = 1;
  uint32_t num_shards = 1;
  std::string hash = "splitmix64";  // partition scheme name (pinned)
};

// SplitMix64 finalizer (Steele et al.): full-avalanche mixing of a 64-bit
// state.  Used to scatter the byte-hash below across shards.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// 64-bit user-key hash: FNV-1a over the bytes, finished with SplitMix64
// so short / sequential keys (the benchmarks' "user%012d") still spread
// evenly.  Pinned by test vectors in sharded_db_test.cc — do not change.
inline uint64_t ShardHash(const Slice& key) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<uint8_t>(key[i]);
    h *= 0x100000001b3ull;  // FNV-1a 64 prime
  }
  return SplitMix64(h);
}

inline uint32_t ShardOf(const Slice& key, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<uint32_t>(ShardHash(key) % num_shards);
}

// File / directory layout under the sharded root:
//   <dbname>/SHARDMAP        the manifest
//   <dbname>/shard-0000/...  one full single-instance DB per shard
std::string ShardMapFileName(const std::string& dbname);
std::string ShardDirName(const std::string& dbname, uint32_t shard);

// Single-line textual form, e.g. "v=1 shards=4 hash=splitmix64".  Also the
// value of the "iamdb.shardmap" property (docs/PROTOCOL.md).
std::string FormatShardMap(const ShardMap& map);
bool ParseShardMap(const Slice& text, ShardMap* map);

// Durable manifest I/O.  Write goes through a temp file + rename so a
// crash leaves either the old or the new map, never a torn one; the
// payload carries a CRC32C so a torn or bit-rotted file reads as
// Corruption instead of a wrong shard count.
Status WriteShardMapFile(Env* env, const std::string& dbname,
                         const ShardMap& map);
Status ReadShardMapFile(Env* env, const std::string& dbname, ShardMap* map);

}  // namespace iamdb
