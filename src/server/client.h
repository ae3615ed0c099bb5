// Blocking client for the iamdb wire protocol.  Mirrors the DB API:
// Put/Get/Delete/Write/Scan plus the server-only Info and Ping calls.
//
// Threading: a Client owns one TCP connection and serializes its calls
// internally, so it is safe to share across threads but blocking calls do
// not pipeline — for concurrency open one Client per thread (the server
// multiplexes connections onto its worker pool).
//
// Pipelining: the Submit*/Wait* API sends requests without waiting for
// their responses, keeping many requests in flight on the one connection.
// The server may complete them out of order; Wait() correlates responses
// by request id and buffers the ones that arrive early.  Submitted
// requests are never auto-retried.
//
// Failure handling: Connect() retries with backoff per ClientOptions.  A
// call that hits a broken connection marks the client disconnected and —
// for idempotent operations (GET/SCAN/INFO/PING) — reconnects and retries
// once.  Mutations are never auto-retried: the original may have applied.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "server/wire_protocol.h"
#include "util/status.h"

namespace iamdb {

class WriteBatch;

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 4490;
  // Per-attempt connect timeout and retry schedule.
  int connect_timeout_ms = 2000;
  int connect_retries = 3;
  int retry_backoff_ms = 100;  // doubled per retry
  // Send/receive timeout per operation; 0 = block forever.
  int op_timeout_ms = 30000;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Establishes the connection (also done lazily by the first call).
  Status Connect();
  void Close();
  bool connected() const;

  Status Ping();
  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  // Batched point reads in one round trip.  On OK, *values and *statuses
  // have one entry per key: statuses[i] is OK (values[i] holds the value)
  // or NotFound (values[i] empty).  All keys are read at one snapshot; a
  // sharded server routes the keys and takes one snapshot per shard
  // (docs/SHARDING.md).
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses);
  Status Delete(const Slice& key);
  // Atomic batch; the batch's contents travel in the WAL wire format.
  Status Write(const WriteBatch& batch);
  // Forward scan of [start_key, end_key) capped at `limit` entries
  // (0 = server default).  *truncated (optional) reports whether the
  // server stopped early with more data remaining.  A sharded server
  // merges its shards, so the entries are a sorted prefix of the range.
  Status Scan(const Slice& start_key, const Slice& end_key, uint32_t limit,
              std::vector<wire::KeyValue>* entries,
              bool* truncated = nullptr);
  // Remote DbStats snapshot (INFO with empty property).
  Status GetStats(DbStats* stats);
  // Remote GetProperty; also accepts the server-side "server.stats" key.
  Status GetProperty(const Slice& property, std::string* value);

  // --- pipelined API ------------------------------------------------------
  // Submit* sends the request and returns its correlation id immediately
  // (0 if the send failed — the connection is closed and every request
  // still in flight is lost).  Wait* blocks until that id's response
  // arrives, buffering any other responses that arrive first; ids may be
  // waited on in any order, each exactly once.
  uint64_t SubmitPing();
  uint64_t SubmitPut(const Slice& key, const Slice& value);
  uint64_t SubmitGet(const Slice& key);
  uint64_t SubmitMultiGet(const std::vector<std::string>& keys);
  uint64_t SubmitScan(const wire::ScanRequest& req);

  // Raw wait: *response_payload (optional) receives the payload after the
  // decoded status.  If the connection died while this id was in flight
  // (peer reset, send failure on a later submit, a corrupt frame), Wait
  // fails with a distinct IOError ("connection lost with request in
  // flight") rather than hanging or reporting "not in flight".
  Status Wait(uint64_t id, std::string* response_payload = nullptr);
  // Typed waits for the common cases.
  Status WaitGet(uint64_t id, std::string* value);
  Status WaitMultiGet(uint64_t id, std::vector<wire::MultiGetEntry>* entries);
  Status WaitScan(uint64_t id, wire::ScanResponse* resp);

 private:
  // Sends one request and blocks for its response; handles lazy connect
  // and the single idempotent retry.  *response_payload excludes the
  // leading status (already decoded into the returned Status).
  Status Call(wire::Opcode opcode, const Slice& payload, bool idempotent,
              std::string* response_payload);
  Status CallOnce(wire::Opcode opcode, const Slice& payload,
                  std::string* response_payload);
  Status ConnectLocked();
  void CloseLocked();
  Status ReadFrame(std::string* body);

  uint64_t SubmitLocked(wire::Opcode opcode, const Slice& payload);
  // Decodes a buffered/arriving response body for `id`; fills
  // *response_payload with the bytes after the status.
  Status WaitLocked(uint64_t id, std::string* response_payload);

  const ClientOptions options_;
  mutable std::mutex mu_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string recv_buffer_;
  // Pipelined requests awaiting a response: id -> expected opcode.
  std::map<uint64_t, wire::Opcode> inflight_;
  // Responses received while waiting for a different id: id -> body
  // payload (status + opcode-specific bytes).  Survives a disconnect.
  std::map<uint64_t, std::string> ready_;
  // Requests that were in flight when the connection died.  Waiting on one
  // of these ids reports the distinct connection-lost IOError exactly once
  // (the id is then forgotten), so pipelined callers with several
  // outstanding ids all learn their requests are gone instead of hanging
  // on a dead socket.
  std::set<uint64_t> lost_;
};

}  // namespace iamdb
