// The ServerStats field table: every serving-layer counter, declared once.
//
// Each row is F(member, group, db_stats_member, help).  From the rows come
// the ServerStats members (server/server.h), the ServerCounter enum that
// indexes the server's relaxed atomics, Server::stats(), the text of the
// `server.stats` property (Server::StatsString), the INFO graft into
// DbStats, and the walks in tests/server_test.cc.  A new counter is one
// row here plus the code that bumps it.
//
// group is the `server.stats` line the counter is printed on, as
// `name=value` in row order: `connections: ...`, `requests: ...` or
// `reactor: ...`.  A group's rows are contiguous.
//
// db_stats_member is the DbStats server_* row (core/db_stats_fields.h,
// tags 23-28) that the INFO opcode fills from this counter, or nullptr for
// a counter INFO does not carry.  Those DbStats rows keep their own tags
// and emission order.
//
// Every counter is monotonic except connections_active (a gauge: the
// acceptor adds, closes subtract) and output_buffer_hwm (a running max).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/db.h"

namespace iamdb {

enum class ServerStatsGroup { kConnections, kRequests, kReactor };
inline constexpr const char* kServerStatsGroupNames[] = {
    "connections", "requests", "reactor"};

#define IAMDB_SERVER_STATS_FIELDS(F)                                          \
  F(connections_accepted, kConnections, nullptr, "connections accepted")     \
  F(connections_active, kConnections, nullptr, "connections open now")       \
  F(accept_errors, kConnections, &DbStats::server_accept_errors,             \
    "accept() failures (EMFILE backoff &c)")                                 \
  F(requests, kRequests, nullptr, "requests started, every opcode")          \
  F(puts, kRequests, nullptr, "PUT requests")                                \
  F(gets, kRequests, nullptr, "GET requests")                                \
  F(deletes, kRequests, nullptr, "DELETE requests")                          \
  F(writes, kRequests, nullptr, "WRITE (batch) requests")                    \
  F(scans, kRequests, nullptr, "SCAN requests")                              \
  F(infos, kRequests, nullptr, "INFO requests")                              \
  F(pings, kRequests, nullptr, "PING requests")                              \
  F(mgets, kRequests, nullptr, "MGET requests")                              \
  F(mget_keys, kRequests, nullptr, "keys asked for by MGET requests")        \
  F(malformed_frames, kRequests, nullptr,                                    \
    "frames rejected as corrupt or unparseable")                             \
  F(bytes_received, kRequests, nullptr, "bytes read from sockets")           \
  F(bytes_sent, kRequests, nullptr, "bytes written to sockets")              \
  F(loop_iterations, kReactor, &DbStats::server_loop_iterations,             \
    "epoll_wait returns, summed over shards")                                \
  F(writev_calls, kReactor, &DbStats::server_writev_calls,                   \
    "vectored socket sends that succeeded")                                  \
  F(responses_written, kReactor, &DbStats::server_responses_written,         \
    "frames fully flushed to a socket")                                      \
  F(output_buffer_hwm, kReactor, &DbStats::server_output_buffer_hwm,         \
    "max buffered response bytes seen")                                      \
  F(backpressure_stalls, kReactor, &DbStats::server_backpressure_stalls,     \
    "reads paused on the soft limit")                                        \
  F(overflow_disconnects, kReactor, nullptr,                                 \
    "connections dropped at the hard limit")                                 \
  F(inline_reads, kReactor, nullptr, "GET/MGET answered on the reactor")     \
  F(deferred_reads, kReactor, nullptr, "GET/MGET that needed a worker")

// Indexes the server's counters: one enumerator per row, in row order.
enum class ServerCounter : size_t {
#define IAMDB_SERVER_COUNTER_ENUM(member, group, db_stats_member, help) member,
  IAMDB_SERVER_STATS_FIELDS(IAMDB_SERVER_COUNTER_ENUM)
#undef IAMDB_SERVER_COUNTER_ENUM
};

#define IAMDB_SERVER_COUNTER_ONE(member, group, db_stats_member, help) +1
inline constexpr size_t kNumServerCounters =
    0 IAMDB_SERVER_STATS_FIELDS(IAMDB_SERVER_COUNTER_ONE);
#undef IAMDB_SERVER_COUNTER_ONE

// One row's metadata, as ForEachServerStatsField hands it to the visitor.
struct ServerStatsField {
  const char* name;
  ServerCounter counter;
  ServerStatsGroup group;
  uint64_t DbStats::*db_stats_member;  // nullptr: not grafted into INFO
  const char* help;
};

// Calls fn(field, s.member...) for every row in row order, passing the
// row's member of each ServerStats in `stats` (const or not).
template <typename Fn, typename... Stats>
void ForEachServerStatsField(Fn&& fn, Stats&... stats) {
#define IAMDB_SERVER_STATS_VISIT(member, group, db_stats_member, help)     \
  fn(ServerStatsField{#member, ServerCounter::member,                       \
                      ServerStatsGroup::group, db_stats_member, help},      \
     stats.member...);
  IAMDB_SERVER_STATS_FIELDS(IAMDB_SERVER_STATS_VISIT)
#undef IAMDB_SERVER_STATS_VISIT
}

}  // namespace iamdb
