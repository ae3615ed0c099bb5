// Event-driven TCP front end exposing a DB over the wire protocol of
// wire_protocol.h.
//
// Thread model — O(shards + workers), independent of connection count:
//
//   * one acceptor thread owns the listening socket and hands accepted
//     sockets to the reactor shards round-robin;
//   * `num_shards` reactor threads each run an epoll loop over the
//     non-blocking connections they own: they decode frames, answer GET
//     and MGET inline when memory holds the answer, dispatch every other
//     request onto the shared two-lane ThreadPool, and write responses;
//   * `num_workers` pool threads execute DB work and post each finished
//     response back to the owning shard (eventfd wakeup), where it is
//     appended to the connection's output buffer.
//
// Inline reads use ReadOptions::cache_only, so a reactor never does
// device I/O and never waits on a lock held across it; a read that comes
// back Status::Incomplete (a cold block or an unopened table reader) is
// handed to a worker.  A GET's worker redoes it; an MGET's worker reads
// only the keys left Incomplete, at the snapshot the reactor's pass used.
// Writes, SCAN, INFO and PING always run on workers.
//
// Fairness: one decode pass over a connection takes at most
// `max_pipeline` requests, inline reads included.  A connection with input
// left yields; its next pass runs after the shard's next poll, so a peer
// that keeps its socket full of inline reads shares the reactor with the
// shard's other connections.
//
// Responses queued for one connection are flushed with a single writev()
// whenever possible, so a pipelined client pays one syscall for a whole
// batch of responses instead of one per response.  Requests from one
// connection still pipeline: up to `max_pipeline` execute concurrently
// and responses complete out of order (correlate by request_id) — an
// inline read can be answered before an earlier-sent write.
//
// Backpressure: a connection whose output buffer exceeds
// `output_buffer_soft_limit` stops being read (its requests stop being
// decoded) until the peer drains; one that exceeds
// `output_buffer_hard_limit` — possible because requests already on
// workers keep completing while reading is paused — is disconnected.
// Inline responses never pass the soft limit by more than one frame:
// decoding stops as soon as they reach it.
//
// Counters: every serving-layer counter is one row of the table in
// server/server_stats_fields.h, which generates ServerStats, the atomics
// behind stats(), the `server.stats` text and the INFO graft.
//
// Shutdown is graceful: Stop() stops accepting, half-closes every
// connection's read side, waits for in-flight requests to finish and
// their responses to flush, then joins all threads.  Stop() is
// idempotent and a concurrent second caller blocks until the server is
// fully stopped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "server/server_stats_fields.h"
#include "server/wire_protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iamdb {

struct ServerOptions {
  // IPv4 address to bind; loopback by default (no auth on the protocol).
  std::string host = "127.0.0.1";
  // 0 picks an ephemeral port; read it back via Server::port().
  int port = 0;
  // DB work executes on this many pool threads.
  int num_workers = 4;
  // Reactor shards owning connection I/O; 0 derives a default from
  // hardware_concurrency (clamped to [1, 4]).
  int num_shards = 0;
  int backlog = 128;
  // Per-connection cap on concurrently executing requests; the shard
  // stops decoding further frames until a slot frees (backpressure).  It
  // also caps the requests one decode pass takes, inline reads included.
  int max_pipeline = 128;
  // Reading from a connection pauses while its buffered responses exceed
  // the soft limit; the connection is dropped past the hard limit.
  size_t output_buffer_soft_limit = 1u << 20;
  size_t output_buffer_hard_limit = 64u << 20;
  // SO_SNDBUF for accepted sockets; 0 keeps the OS default.  Tests shrink
  // it so backpressure triggers deterministically.
  int sndbuf_bytes = 0;
  // Per-request cap on MGET fan-in.
  uint32_t max_mget_keys = 4096;
  // SCAN limit applied when the request asks for 0, and the hard cap.
  uint32_t default_scan_limit = 1000;
  uint32_t max_scan_limit = 100000;
  // SCAN responses stop adding entries past this many payload bytes
  // (marked truncated) so a frame stays well under wire::kMaxFrameSize.
  size_t max_scan_bytes = 4u << 20;
};

// Snapshot of the server's counters, one member per table row.  Sampled
// via Server::stats(), GetProperty("server.stats") or the INFO opcode; the
// counters are relaxed atomics, individually but not mutually consistent.
struct ServerStats {
#define IAMDB_SERVER_STATS_MEMBER(member, group, db_stats_member, help) \
  uint64_t member = 0;
  IAMDB_SERVER_STATS_FIELDS(IAMDB_SERVER_STATS_MEMBER)
#undef IAMDB_SERVER_STATS_MEMBER
};

class Server {
 public:
  // `db` must outlive the server and is shared with any local users; the
  // server adds no locking beyond what DB already guarantees.
  Server(DB* db, ServerOptions options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the acceptor, reactor shards and worker
  // pool.  Not restartable: one Start()/Stop() cycle per instance.
  Status Start();

  // Graceful shutdown: drain in-flight requests, flush their responses,
  // join every thread.  Idempotent; safe to call concurrently with
  // serving.  A second concurrent caller blocks until teardown completes,
  // so any caller returning from Stop() observes a fully stopped server.
  void Stop();

  // Port actually bound (differs from options.port when that was 0).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  // The "server.stats" property body: one line per table group,
  // `group: name=value ...` in row order; the reactor line also carries
  // `shards=N` and the derived `responses_per_writev=R`.
  std::string StatsString() const;

  // Reactor count resolved by Start(); still reported after Stop().
  int num_shards() const { return num_shards_; }

 private:
  struct Connection;
  struct Shard;

  enum class State { kIdle, kRunning, kStopping, kStopped };

  void AcceptLoop();
  void ShardLoop(Shard* shard);

  struct MultiGetBatch;

  // Runs on a pool worker (or inline during teardown): counts and executes
  // the request against the DB, then posts the response to the owning
  // shard.
  void ExecuteRequest(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, wire::Opcode op,
                      const std::string& payload);
  // Frames `out` and hands it to the connection's shard (eventfd wakeup).
  void PostResponse(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, wire::Opcode op,
                    const std::string& out);
  // Bumps `requests` and the opcode's counter: once per request, when it
  // starts on a worker or when the reactor has answered it inline.
  void CountRequest(wire::Opcode op);
  // One relaxed fetch_add; a shared mutex would be per-request contention
  // for numbers that only need to be individually monotonic.
  void Bump(ServerCounter counter, uint64_t n = 1);
  // Raises the counter to at least `v` (a relaxed CAS loop).
  void BumpMax(ServerCounter counter, uint64_t v);

  // Executes one worker request and encodes its response payload into
  // *out.  Every opcode but MGET, which starts on the reactor (DoMultiGet)
  // and reaches a worker only through FinishMultiGet.
  void Execute(wire::Opcode op, const Slice& payload, std::string* out);

  // Shard-loop helpers; all run on the owning shard's thread.
  void AddConnection(Shard* shard, int fd);
  void HandleReadable(Shard* shard, const std::shared_ptr<Connection>& conn);
  void ProcessInput(Shard* shard, const std::shared_ptr<Connection>& conn);
  void QueueResponse(Shard* shard, Connection* conn, std::string frame);
  void FlushOutput(Shard* shard, Connection* conn);
  void UpdateInterest(Shard* shard, Connection* conn);
  void MaybeResume(Shard* shard, const std::shared_ptr<Connection>& conn);
  void MaybeFinish(Shard* shard, Connection* conn);
  void CloseConnection(Shard* shard, Connection* conn);

  // False when a cache-only read came back Incomplete.
  bool DoGet(const Slice& payload, bool cache_only, std::string* out);
  // The reactor's cache-only pass over an MGET.  False when keys need the
  // device: *deferred then holds the batch for FinishMultiGet.
  bool DoMultiGet(const Slice& payload, std::string* out,
                  std::shared_ptr<MultiGetBatch>* deferred);
  // On a worker: reads the keys the reactor left, at its snapshot.
  void FinishMultiGet(MultiGetBatch* batch, std::string* out);
  void EncodeMultiGet(MultiGetBatch* batch, std::string* out);
  void DoPut(const Slice& payload, std::string* out);
  void DoDelete(const Slice& payload, std::string* out);
  void DoWrite(const Slice& payload, std::string* out);
  void DoScan(const Slice& payload, std::string* out);
  void DoInfo(const Slice& payload, std::string* out);

  DB* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int num_shards_ = 0;  // written by Start() before any thread runs

  // Start/Stop lifecycle; guards `state_` only (the serving hot path
  // never touches it).
  mutable std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  State state_ = State::kIdle;

  // Indexed by ServerCounter.  Bumped from every shard and pool worker.
  std::unique_ptr<std::atomic<uint64_t>[]> counters_;
};

}  // namespace iamdb
