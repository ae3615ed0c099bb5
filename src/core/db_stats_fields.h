// The DbStats field table: every wire-tagged metric, declared once.
//
// Each row is F(type, member, tag, aggregation, group, help).  IO rows have
// the same columns and name a counter of the nested `IoStatsSnapshot io`
// (stats/io_stats.h).  From the rows come the DbStats members (core/db.h),
// operator+= (core/db_stats.cc), the INFO wire codec
// (server/wire_protocol.cc), `iamdb_cli stats`, and the walks in
// tests/db_stats_test.cc.  A new metric is one row here plus the code that
// fills it.
//
// type fixes the wire encoding of the value:
//   uint64_t        varint64
//   int             varint64 of the value cast to uint64_t
//   double          fixed64 of its IEEE-754 bits
//   std::vector<T>  the elements' encodings back to back
//
// aggregation is how operator+= (and so ShardedDB::GetStats) combines two
// instances:
//   kSum  add; vectors pad to the longer side and add per level
//   kMax  the larger side: structural per-instance values and high-water
//         marks
//   kAmp  a ratio over user_bytes, weighted by each side's user_bytes so
//         the result is total bytes written / total user bytes; vectors pad
//
// group: kAlways rows are always emitted, empty vectors included.  Every
// other group is omit-when-zero: its tags are emitted iff one of its
// members is nonzero, so a snapshot in which a feature never engaged keeps
// the byte layout it had before the feature existed.  The server group is
// filled only by the server's INFO path.
//
// Rows are in emission order, not tag order: tags 1-22, the pacer group
// 29-32, the server group 23-28, then 33-52.  Tags run densely from 1 (a
// static_assert below checks it); a tag is never renumbered or reused.
// Tag 22 and the pacer group are retired: background I/O pacing is gone,
// nothing fills them, so tag 22 always reads 0 and the pacer group is never
// emitted.  Tags 43-47 of the arbiter group are retired too (memory is
// sized once at Open, nothing re-divides it) and always read 0; the group's
// live member, tag 48, alone decides whether the group is emitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

namespace iamdb {

enum class DbStatsAgg { kSum, kMax, kAmp };
enum class DbStatsGroup {
  kAlways,
  kPacer,
  kServer,
  kCompression,
  kArbiter,
  kMultiGet,
};
inline constexpr size_t kNumDbStatsGroups = 6;

#define IAMDB_DB_STATS_FIELDS(F, IO)                                          \
  F(uint64_t, user_bytes, 1, kSum, kAlways,                                   \
    "user bytes written (the write-amp denominator)")                         \
  F(uint64_t, space_used_bytes, 2, kSum, kAlways,                             \
    "live table file footprint")                                              \
  F(uint64_t, cache_usage, 3, kSum, kAlways, "block cache bytes in use")      \
  F(uint64_t, cache_hits, 4, kSum, kAlways, "block cache hits")               \
  F(uint64_t, cache_misses, 5, kSum, kAlways, "block cache misses")           \
  F(uint64_t, stall_micros, 6, kSum, kAlways, "time writers spent stalled")   \
  F(uint64_t, pending_debt_bytes, 7, kSum, kAlways,                           \
    "estimated bytes of outstanding compaction work")                         \
  F(int, mixed_level, 8, kMax, kAlways,                                       \
    "AMT mixed level m (0 = none or unknown)")                                \
  F(int, mixed_level_k, 9, kMax, kAlways,                                     \
    "AMT max sequences per mixed-level node k")                               \
  F(double, total_write_amp, 10, kAmp, kAlways,                               \
    "bytes written / user bytes, WAL excluded (paper convention)")            \
  F(std::vector<uint64_t>, level_bytes, 11, kSum, kAlways,                    \
    "bytes per on-disk level, [0] = first")                                   \
  F(std::vector<int>, level_node_counts, 12, kSum, kAlways,                   \
    "nodes per on-disk level")                                                \
  F(std::vector<double>, level_write_amp, 13, kAmp, kAlways,                  \
    "write amp per on-disk level")                                            \
  IO(uint64_t, bytes_written, 14, kSum, kAlways, "device bytes written")      \
  IO(uint64_t, bytes_read, 15, kSum, kAlways, "device bytes read")            \
  IO(uint64_t, write_ops, 16, kSum, kAlways, "device Append calls")           \
  IO(uint64_t, read_ops, 17, kSum, kAlways,                                   \
    "device positional reads (seeks)")                                        \
  IO(uint64_t, fsyncs, 18, kSum, kAlways, "device syncs")                     \
  F(uint64_t, flush_queue_depth, 19, kSum, kAlways,                           \
    "tasks waiting in the flush lane")                                        \
  F(uint64_t, compact_queue_depth, 20, kSum, kAlways,                         \
    "tasks waiting in the compaction lane")                                   \
  F(uint64_t, subcompactions_run, 21, kSum, kAlways,                          \
    "key-range shards run by partitioned subcompactions")                     \
  F(uint64_t, rate_limiter_wait_micros, 22, kSum, kAlways,                    \
    "retired (no rate limiter): always 0")                                    \
  F(uint64_t, pacer_rate_bytes_per_sec, 29, kSum, kPacer,                     \
    "retired (no pacer): always 0")                                           \
  F(uint64_t, pacer_ingest_bytes_per_sec, 30, kSum, kPacer,                   \
    "retired (no pacer): always 0")                                           \
  F(uint64_t, pacer_retunes, 31, kSum, kPacer,                                \
    "retired (no pacer): always 0")                                           \
  F(uint64_t, rate_limiter_paced_wall_micros, 32, kSum, kPacer,               \
    "retired (no rate limiter): always 0")                                    \
  F(uint64_t, server_loop_iterations, 23, kSum, kServer,                      \
    "reactor event-loop iterations")                                          \
  F(uint64_t, server_writev_calls, 24, kSum, kServer, "reactor writev calls") \
  F(uint64_t, server_responses_written, 25, kSum, kServer,                    \
    "responses the reactor wrote")                                            \
  F(uint64_t, server_output_buffer_hwm, 26, kMax, kServer,                    \
    "max buffered response bytes seen")                                       \
  F(uint64_t, server_backpressure_stalls, 27, kSum, kServer,                  \
    "reads paused on the output-buffer limit")                                \
  F(uint64_t, server_accept_errors, 28, kSum, kServer, "accept() failures")   \
  F(uint64_t, compress_input_bytes, 33, kSum, kCompression,                   \
    "uncompressed bytes of built data blocks")                                \
  F(uint64_t, compress_stored_bytes, 34, kSum, kCompression,                  \
    "bytes written for those blocks")                                         \
  F(uint64_t, compress_columnar_blocks, 35, kSum, kCompression,               \
    "blocks stored by the columnar codec")                                    \
  F(uint64_t, compress_lz_blocks, 36, kSum, kCompression,                     \
    "blocks stored by the LZ codec")                                          \
  F(uint64_t, compress_raw_fallback_blocks, 37, kSum, kCompression,           \
    "blocks stored raw: codec declined or ratio too low")                     \
  F(uint64_t, decompressed_blocks, 38, kSum, kCompression,                    \
    "blocks decompressed on read")                                            \
  F(uint64_t, decompress_micros, 39, kSum, kCompression,                      \
    "time spent decompressing")                                               \
  F(uint64_t, compressed_cache_usage, 40, kSum, kCompression,                 \
    "compressed-block cache bytes in use")                                    \
  F(uint64_t, compressed_cache_hits, 41, kSum, kCompression,                  \
    "compressed-block cache hits")                                            \
  F(uint64_t, compressed_cache_misses, 42, kSum, kCompression,                \
    "compressed-block cache misses")                                          \
  F(uint64_t, arbiter_budget_bytes, 43, kSum, kArbiter,                       \
    "retired (no memory arbiter): always 0")                                  \
  F(uint64_t, arbiter_write_bytes, 44, kSum, kArbiter,                        \
    "retired (no memory arbiter): always 0")                                  \
  F(uint64_t, arbiter_read_bytes, 45, kSum, kArbiter,                         \
    "retired (no memory arbiter): always 0")                                  \
  F(uint64_t, arbiter_retunes, 46, kSum, kArbiter,                            \
    "retired (no memory arbiter): always 0")                                  \
  F(uint64_t, arbiter_shifts, 47, kSum, kArbiter,                             \
    "retired (no memory arbiter): always 0")                                  \
  F(uint64_t, mixed_level_retunes, 48, kSum, kArbiter,                        \
    "AMT (m,k) changes after open")                                           \
  F(uint64_t, multiget_batches, 49, kSum, kMultiGet,                          \
    "MultiGet batches served")                                                \
  F(uint64_t, multiget_keys, 50, kSum, kMultiGet,                             \
    "keys looked up by MultiGet")                                             \
  F(uint64_t, multiget_coalesced_reads, 51, kSum, kMultiGet,                  \
    "vectored reads covering 2+ adjacent blocks")                             \
  F(uint64_t, multiget_coalesced_blocks, 52, kSum, kMultiGet,                 \
    "blocks those coalesced reads fetched")

// One row's metadata, as ForEachDbStatsField hands it to the visitor.
struct DbStatsField {
  const char* name;  // the member, e.g. "user_bytes" or "io.read_ops"
  uint32_t tag;
  DbStatsAgg agg;
  DbStatsGroup group;
  const char* help;
};

// Calls fn(field, s.member...) for every row in emission order, passing the
// row's member of each DbStats in `stats` (const or not).
template <typename Fn, typename... Stats>
void ForEachDbStatsField(Fn&& fn, Stats&... stats) {
#define IAMDB_DB_STATS_VISIT(type, member, tag, agg, group, help)          \
  fn(DbStatsField{#member, tag, DbStatsAgg::agg, DbStatsGroup::group, help}, \
     stats.member...);
#define IAMDB_DB_STATS_VISIT_IO(type, member, tag, agg, group, help) \
  IAMDB_DB_STATS_VISIT(type, io.member, tag, agg, group, help)
  IAMDB_DB_STATS_FIELDS(IAMDB_DB_STATS_VISIT, IAMDB_DB_STATS_VISIT_IO)
#undef IAMDB_DB_STATS_VISIT
#undef IAMDB_DB_STATS_VISIT_IO
}

// Calls fn(field, stats.member) for exactly the rows EncodeDbStats emits,
// in the same order: kAlways rows, and every row of each omit-when-zero
// group that has a nonzero member.
template <typename Fn, typename Stats>
void ForEachEmittedDbStatsField(Fn&& fn, const Stats& stats) {
  bool emitted[kNumDbStatsGroups] = {};
  emitted[static_cast<size_t>(DbStatsGroup::kAlways)] = true;
  ForEachDbStatsField(
      [&](const DbStatsField& f, const auto& v) {
        if (v != std::decay_t<decltype(v)>{}) {
          emitted[static_cast<size_t>(f.group)] = true;
        }
      },
      stats);
  ForEachDbStatsField(
      [&](const DbStatsField& f, const auto& v) {
        if (emitted[static_cast<size_t>(f.group)]) fn(f, v);
      },
      stats);
}

#define IAMDB_DB_STATS_TAG(type, member, tag, agg, group, help) tag,
inline constexpr uint32_t kDbStatsTags[] = {
    IAMDB_DB_STATS_FIELDS(IAMDB_DB_STATS_TAG, IAMDB_DB_STATS_TAG)};
#undef IAMDB_DB_STATS_TAG

constexpr bool DbStatsTagsAreDense() {
  for (uint32_t tag = 1; tag <= std::size(kDbStatsTags); tag++) {
    int rows = 0;
    for (uint32_t t : kDbStatsTags) rows += (t == tag);
    if (rows != 1) return false;
  }
  return true;
}
static_assert(DbStatsTagsAreDense(),
              "DbStats tags must be 1..N with each tag on exactly one row");

}  // namespace iamdb
