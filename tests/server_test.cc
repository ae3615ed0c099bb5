// End-to-end tests for the network serving layer: loopback round-trips for
// every opcode, pipelined multi-client stress, malformed/truncated frame
// handling, and graceful shutdown with in-flight requests.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "memtable/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace iamdb {
namespace {

// Polls `cond` every 10ms for up to `timeout_ms`.
bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

// Number of live threads in this process (/proc/self/task entries).
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') n++;
  }
  ::closedir(dir);
  return n;
}

// Blocking loopback connect to a local port; optional SO_RCVBUF shrink so a
// deliberately slow reader backs the server's sends up quickly.
int RawConnectTo(int port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

// A DB + server pair with caller-chosen ServerOptions, for tests that need
// non-default reactor tuning (tiny buffers, fixed shard counts, ...).
struct OwnedServer {
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<DB> db;
  std::unique_ptr<Server> server;

  OwnedServer() = default;
  OwnedServer(OwnedServer&&) = default;
  OwnedServer& operator=(OwnedServer&&) = default;

  ~OwnedServer() {
    if (server != nullptr) server->Stop();
  }
};

OwnedServer StartOwnedServer(ServerOptions server_options) {
  OwnedServer owned;
  owned.env = std::make_unique<MemEnv>();
  Options options;
  options.env = owned.env.get();
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  EXPECT_TRUE(DB::Open(options, "/srv", &owned.db).ok());
  server_options.port = 0;
  owned.server = std::make_unique<Server>(owned.db.get(), server_options);
  EXPECT_TRUE(owned.server->Start().ok());
  EXPECT_GT(owned.server->port(), 0);
  return owned;
}

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    Options options;
    options.env = env_.get();
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    ASSERT_TRUE(DB::Open(options, "/srv", &db_).ok());

    ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.num_workers = 4;
    server_ = std::make_unique<Server>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  ClientOptions MakeClientOptions() {
    ClientOptions options;
    options.port = server_->port();
    options.connect_retries = 1;
    return options;
  }

  // Raw loopback socket for protocol-level (mis)behaviour tests.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(0,
              ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
    return fd;
  }

  static bool RawSend(int fd, const std::string& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // Reads frames until `n` bodies have been collected or the peer closes.
  static std::vector<std::string> RawReadBodies(int fd, size_t n) {
    std::vector<std::string> bodies;
    std::string buffer;
    char chunk[16 << 10];
    while (bodies.size() < n) {
      Slice body;
      size_t consumed;
      wire::FrameResult r =
          wire::DecodeFrame(buffer.data(), buffer.size(), &body, &consumed);
      if (r == wire::FrameResult::kOk) {
        bodies.emplace_back(body.data(), body.size());
        buffer.erase(0, consumed);
        continue;
      }
      EXPECT_EQ(wire::FrameResult::kNeedMore, r);
      ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
    }
    return bodies;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, PutGetDeleteRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("alpha", "1").ok());
  EXPECT_TRUE(client.Put("beta", "2").ok());

  std::string value;
  EXPECT_TRUE(client.Get("alpha", &value).ok());
  EXPECT_EQ("1", value);
  EXPECT_TRUE(client.Get("beta", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(client.Get("gamma", &value).IsNotFound());

  EXPECT_TRUE(client.Delete("alpha").ok());
  EXPECT_TRUE(client.Get("alpha", &value).IsNotFound());

  // The write really reached the DB instance behind the server.
  EXPECT_TRUE(db_->Get(ReadOptions(), "beta", &value).ok());
  EXPECT_EQ("2", value);
}

TEST_F(ServerTest, EmptyAndBinaryValues) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("empty", "").ok());
  std::string binary("\x00\x01\xff\xfe\n\r", 6);
  EXPECT_TRUE(client.Put(Slice("bin\x00key", 7), binary).ok());

  std::string value;
  EXPECT_TRUE(client.Get("empty", &value).ok());
  EXPECT_EQ("", value);
  EXPECT_TRUE(client.Get(Slice("bin\x00key", 7), &value).ok());
  EXPECT_EQ(binary, value);
}

TEST_F(ServerTest, WriteBatchRoundTrip) {
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Put("kill-me", "x").ok());

  WriteBatch batch;
  batch.Put("batch-a", "A");
  batch.Put("batch-b", "B");
  batch.Delete("kill-me");
  EXPECT_TRUE(client.Write(batch).ok());

  std::string value;
  EXPECT_TRUE(client.Get("batch-a", &value).ok());
  EXPECT_EQ("A", value);
  EXPECT_TRUE(client.Get("batch-b", &value).ok());
  EXPECT_EQ("B", value);
  EXPECT_TRUE(client.Get("kill-me", &value).IsNotFound());
}

TEST_F(ServerTest, MalformedWriteBatchRejected) {
  Client client(MakeClientOptions());
  WriteBatch batch;
  batch.Put("a", "1");
  std::string rep = WriteBatchInternal::Contents(&batch).ToString();
  // Lie about the record count; the server must reject before applying.
  EncodeFixed32(&rep[8], 7);
  WriteBatch tampered;
  WriteBatchInternal::SetContents(&tampered, rep);
  Status s = client.Write(tampered);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::string value;
  EXPECT_TRUE(client.Get("a", &value).IsNotFound());
}

TEST_F(ServerTest, ScanBoundedRange) {
  Client client(MakeClientOptions());
  for (int i = 0; i < 50; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%03d", i);
    ASSERT_TRUE(client.Put(key, std::string("v") + key).ok());
  }

  std::vector<wire::KeyValue> entries;
  bool truncated = true;
  // Bounded [key010, key020): half-open, 10 entries.
  ASSERT_TRUE(
      client.Scan("key010", "key020", 0, &entries, &truncated).ok());
  ASSERT_EQ(10u, entries.size());
  EXPECT_FALSE(truncated);
  EXPECT_EQ("key010", entries.front().first);
  EXPECT_EQ("vkey010", entries.front().second);
  EXPECT_EQ("key019", entries.back().first);

  // Unbounded with a limit: truncated.
  ASSERT_TRUE(client.Scan("", "", 7, &entries, &truncated).ok());
  EXPECT_EQ(7u, entries.size());
  EXPECT_TRUE(truncated);
  EXPECT_EQ("key000", entries.front().first);

  // Start beyond the last key: empty.
  ASSERT_TRUE(client.Scan("zzz", "", 0, &entries, &truncated).ok());
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(truncated);
}

TEST_F(ServerTest, InfoStatsAndProperties) {
  Client client(MakeClientOptions());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client.Put("info" + std::to_string(i),
                           std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());

  DbStats stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_GT(stats.user_bytes, 0u);
  EXPECT_GT(stats.space_used_bytes, 0u);
  EXPECT_FALSE(stats.level_bytes.empty());

  // The remote snapshot matches a local one on the stable counters.
  DbStats local = db_->GetStats();
  EXPECT_EQ(local.user_bytes, stats.user_bytes);
  EXPECT_EQ(local.space_used_bytes, stats.space_used_bytes);
  EXPECT_EQ(local.stall_micros, stats.stall_micros);

  // GetProperty passthrough.
  std::string value;
  ASSERT_TRUE(client.GetProperty("iamdb.stats", &value).ok());
  EXPECT_NE(std::string::npos, value.find("space="));

  // Server-side counters property.
  ASSERT_TRUE(client.GetProperty("server.stats", &value).ok());
  EXPECT_NE(std::string::npos, value.find("requests="));
  EXPECT_NE(std::string::npos, value.find("connections:"));

  EXPECT_TRUE(client.GetProperty("no.such.property", &value).IsNotFound());
}

TEST_F(ServerTest, ManyClientsPipelinedStress) {
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 200;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures] {
      Client client(MakeClientOptions());
      for (int i = 0; i < kOpsPerClient; i++) {
        std::string key = std::string("c")
                              .append(std::to_string(c))
                              .append("-")
                              .append(std::to_string(i));
        if (!client.Put(key, "v" + key).ok()) failures++;
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        std::string key = std::string("c")
                              .append(std::to_string(c))
                              .append("-")
                              .append(std::to_string(i));
        std::string value;
        if (!client.Get(key, &value).ok() || value != "v" + key) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());

  ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.requests,
            static_cast<uint64_t>(2 * kClients * kOpsPerClient));
}

// True wire-level pipelining: many requests written before any response is
// read; responses may arrive out of order and are correlated by id.
TEST_F(ServerTest, RawPipelinedRequests) {
  int fd = RawConnect();
  constexpr uint64_t kRequests = 64;
  std::string wire_out;
  for (uint64_t id = 1; id <= kRequests; id++) {
    std::string payload;
    wire::EncodePut(std::string("pipe").append(std::to_string(id)),
                    std::string("v").append(std::to_string(id)), &payload);
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  std::vector<std::string> bodies = RawReadBodies(fd, kRequests);
  ASSERT_EQ(kRequests, bodies.size());
  std::map<uint64_t, Status> responses;
  for (const std::string& body : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice payload;
    ASSERT_TRUE(wire::ParseBody(body, &id, &op, &payload));
    EXPECT_EQ(wire::Opcode::kPut, op);
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&payload, &s));
    EXPECT_TRUE(s.ok()) << s.ToString();
    responses[id] = s;
  }
  EXPECT_EQ(kRequests, responses.size());  // every id answered exactly once
  ::close(fd);

  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "pipe1", &value).ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "pipe64", &value).ok());
}

TEST_F(ServerTest, BadCrcFrameRejected) {
  int fd = RawConnect();
  std::string payload;
  wire::EncodePut("key", "value", &payload);
  std::string frame;
  wire::BuildFrame(1, wire::Opcode::kPut, payload, &frame);
  frame.back() ^= 0x5a;  // corrupt the last payload byte
  ASSERT_TRUE(RawSend(fd, frame));

  // The server answers with a kError frame (id 0) and closes.
  std::vector<std::string> bodies = RawReadBodies(fd, 1);
  ASSERT_EQ(1u, bodies.size());
  uint64_t id;
  wire::Opcode op;
  Slice p;
  ASSERT_TRUE(wire::ParseBody(bodies[0], &id, &op, &p));
  EXPECT_EQ(0u, id);
  EXPECT_EQ(wire::Opcode::kError, op);
  Status s;
  ASSERT_TRUE(wire::DecodeStatus(&p, &s));
  EXPECT_TRUE(s.IsCorruption());

  char byte;
  EXPECT_EQ(0, ::recv(fd, &byte, 1, 0));  // EOF: connection dropped
  ::close(fd);
  EXPECT_GE(server_->stats().malformed_frames, 1u);
}

TEST_F(ServerTest, OversizedFrameRejected) {
  int fd = RawConnect();
  std::string frame;
  PutFixed32(&frame, wire::kMaxFrameSize + 1);
  frame.append("garbage that will never be read");
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 1);
  ASSERT_EQ(1u, bodies.size());
  uint64_t id;
  wire::Opcode op;
  Slice p;
  ASSERT_TRUE(wire::ParseBody(bodies[0], &id, &op, &p));
  EXPECT_EQ(wire::Opcode::kError, op);
  char byte;
  EXPECT_EQ(0, ::recv(fd, &byte, 1, 0));
  ::close(fd);
}

TEST_F(ServerTest, UnknownOpcodeAnsweredWithoutDroppingConnection) {
  int fd = RawConnect();
  // A frame whose checksum is fine but whose opcode byte (42) is unknown.
  std::string body;
  PutFixed64(&body, 77);
  body.push_back(static_cast<char>(42));
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(4 + body.size()));
  PutFixed32(&frame, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  frame.append(body);
  // Follow with a valid PING to prove the stream survives.
  std::string payload;
  wire::BuildFrame(78, wire::Opcode::kPing, Slice(), &frame);
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 2);
  ASSERT_EQ(2u, bodies.size());
  std::map<uint64_t, wire::Opcode> by_id;
  for (const std::string& b : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(b, &id, &op, &p));
    by_id[id] = op;
  }
  EXPECT_EQ(wire::Opcode::kError, by_id[77]);
  EXPECT_EQ(wire::Opcode::kPing, by_id[78]);
  ::close(fd);
}

TEST_F(ServerTest, TruncatedFrameThenCloseIsHarmless) {
  int fd = RawConnect();
  std::string payload;
  wire::EncodePut("dangling", "value", &payload);
  std::string frame;
  wire::BuildFrame(9, wire::Opcode::kPut, payload, &frame);
  // Send only half the frame, then disconnect.
  ASSERT_TRUE(RawSend(fd, frame.substr(0, frame.size() / 2)));
  ::close(fd);

  // The server must survive and keep serving others.
  Client client(MakeClientOptions());
  EXPECT_TRUE(client.Ping().ok());
  std::string value;
  EXPECT_TRUE(client.Get("dangling", &value).IsNotFound());
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightRequests) {
  int fd = RawConnect();
  // Pipeline a burst of PUTs, then immediately Stop() the server: every
  // accepted request must still be executed and answered before the
  // connection closes.
  constexpr uint64_t kRequests = 100;
  std::string wire_out;
  for (uint64_t id = 1; id <= kRequests; id++) {
    std::string payload;
    wire::EncodePut("drain" + std::to_string(id), std::string(256, 'd'),
                    &payload);
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  std::thread stopper([this] { server_->Stop(); });

  std::vector<std::string> bodies = RawReadBodies(fd, kRequests);
  stopper.join();
  ::close(fd);

  // Every request the server read before the drain point got a response;
  // the tail may have been cut by the half-close.  All answered requests
  // must have succeeded, and every response is well-formed.
  std::map<uint64_t, bool> answered;
  for (const std::string& body : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(body, &id, &op, &p));
    EXPECT_EQ(wire::Opcode::kPut, op);
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&p, &s));
    EXPECT_TRUE(s.ok()) << s.ToString();
    answered[id] = true;
  }
  EXPECT_EQ(bodies.size(), answered.size());
  EXPECT_FALSE(server_->running());

  // Every answered PUT is durably in the DB.
  for (const auto& [id, ok] : answered) {
    std::string value;
    EXPECT_TRUE(
        db_->Get(ReadOptions(), "drain" + std::to_string(id), &value).ok())
        << "answered request " << id << " missing from DB";
  }
}

TEST_F(ServerTest, StopIsIdempotentAndClientSeesClosure) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  server_->Stop();  // second call: no-op
  EXPECT_FALSE(server_->running());
  // The established connection was closed; a fresh call fails cleanly.
  Status s = client.Ping();
  EXPECT_FALSE(s.ok());
}

TEST_F(ServerTest, ServerStatsCountOpcodes) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("s", "1").ok());
  std::string value;
  ASSERT_TRUE(client.Get("s", &value).ok());
  ASSERT_TRUE(client.Delete("s").ok());

  ServerStats stats = server_->stats();
  EXPECT_GE(stats.pings, 1u);
  EXPECT_GE(stats.puts, 1u);
  EXPECT_GE(stats.gets, 1u);
  EXPECT_GE(stats.deletes, 1u);
  EXPECT_GE(stats.requests, 4u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

// The counter table drives both outputs: every row prints as ` name=` in
// server.stats, and every grafted DbStats server_* row INFO returns lies
// between snapshots taken before and after the INFO call.
TEST_F(ServerTest, StatsTableDrivesTextAndInfoGraft) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        client.Put(std::string("t").append(std::to_string(i)), "v").ok());
  }
  std::string value;
  ASSERT_TRUE(client.Get("t3", &value).ok());
  ASSERT_TRUE(client.Delete("t4").ok());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(client.MultiGet({"t1", "t2", "absent"}, &values, &statuses).ok());
  WriteBatch batch;
  batch.Put("t5", "w");
  ASSERT_TRUE(client.Write(batch).ok());
  std::vector<wire::KeyValue> entries;
  ASSERT_TRUE(client.Scan("t", "u", 100, &entries).ok());

  const ServerStats before = server_->stats();
  DbStats remote;
  ASSERT_TRUE(client.GetStats(&remote).ok());
  const ServerStats after = server_->stats();

  int grafted = 0;
  ForEachServerStatsField(
      [&](const ServerStatsField& f, uint64_t lo, uint64_t hi) {
        if (f.db_stats_member == nullptr) return;
        grafted++;
        EXPECT_LE(lo, remote.*f.db_stats_member) << f.name;
        EXPECT_GE(hi, remote.*f.db_stats_member) << f.name;
      },
      before, after);
  EXPECT_EQ(6, grafted);
  EXPECT_GT(remote.server_loop_iterations, 0u);
  EXPECT_GT(remote.server_responses_written, 0u);

  const std::string text = server_->StatsString();
  size_t rows = 0;
  ForEachServerStatsField(
      [&](const ServerStatsField& f, uint64_t) {
        rows++;
        EXPECT_NE(std::string::npos,
                  text.find(std::string(" ") + f.name + "="))
            << f.name << " missing from:\n" << text;
      },
      after);
  EXPECT_EQ(kNumServerCounters, rows);
}

TEST_F(ServerTest, MultiGetRoundTrip) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Put("mg-a", "A").ok());
  ASSERT_TRUE(client.Put("mg-b", "B").ok());
  ASSERT_TRUE(client.Put("mg-empty", "").ok());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  Status s = client.MultiGet({"mg-a", "missing", "mg-b", "mg-empty"},
                             &values, &statuses);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(4u, values.size());
  ASSERT_EQ(4u, statuses.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ("A", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ("B", values[2]);
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ("", values[3]);

  // Degenerate empty batch round-trips.
  ASSERT_TRUE(client.MultiGet({}, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());

  // A batch past the per-request key cap is rejected, not served.
  std::vector<std::string> too_many(5000, "k");
  s = client.MultiGet(too_many, &values, &statuses);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  EXPECT_GE(server_->stats().mgets, 2u);
  EXPECT_GE(server_->stats().mget_keys, 4u);
}

TEST_F(ServerTest, MalformedMultiGetAnsweredWithoutDroppingConnection) {
  int fd = RawConnect();
  // Claims three keys, carries none: DecodeMultiGet must fail and the
  // server must answer InvalidArgument on this request only.
  std::string frame;
  wire::BuildFrame(91, wire::Opcode::kMultiGet, Slice("\x03", 1), &frame);
  wire::BuildFrame(92, wire::Opcode::kPing, Slice(), &frame);
  ASSERT_TRUE(RawSend(fd, frame));

  std::vector<std::string> bodies = RawReadBodies(fd, 2);
  ASSERT_EQ(2u, bodies.size());
  std::map<uint64_t, Status> by_id;
  for (const std::string& b : bodies) {
    uint64_t id;
    wire::Opcode op;
    Slice p;
    ASSERT_TRUE(wire::ParseBody(b, &id, &op, &p));
    Status s;
    ASSERT_TRUE(wire::DecodeStatus(&p, &s));
    by_id[id] = s;
  }
  EXPECT_TRUE(by_id[91].IsInvalidArgument()) << by_id[91].ToString();
  EXPECT_TRUE(by_id[92].ok());
  ::close(fd);
}

TEST_F(ServerTest, PipelinedClientWaitsOutOfOrder) {
  Client client(MakeClientOptions());
  constexpr int kN = 16;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(client
                    .Put(std::string("pl").append(std::to_string(i)),
                         std::string("v").append(std::to_string(i)))
                    .ok());
  }

  std::vector<uint64_t> ids;
  for (int i = 0; i < kN; i++) {
    uint64_t id = client.SubmitGet("pl" + std::to_string(i));
    ASSERT_NE(0u, id);
    ids.push_back(id);
  }
  uint64_t miss_id = client.SubmitGet("pl-missing");
  ASSERT_NE(0u, miss_id);
  uint64_t mget_id = client.SubmitMultiGet({"pl0", "pl-missing", "pl5"});
  ASSERT_NE(0u, mget_id);

  // Claim responses in reverse submission order; early arrivals buffer.
  for (int i = kN - 1; i >= 0; i--) {
    std::string value;
    Status s = client.WaitGet(ids[i], &value);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("v" + std::to_string(i), value);
  }
  std::string value;
  EXPECT_TRUE(client.WaitGet(miss_id, &value).IsNotFound());

  std::vector<wire::MultiGetEntry> entries;
  ASSERT_TRUE(client.WaitMultiGet(mget_id, &entries).ok());
  ASSERT_EQ(3u, entries.size());
  EXPECT_EQ(wire::StatusCode::kOk, entries[0].code);
  EXPECT_EQ("v0", entries[0].value);
  EXPECT_EQ(wire::StatusCode::kNotFound, entries[1].code);
  EXPECT_EQ(wire::StatusCode::kOk, entries[2].code);
  EXPECT_EQ("v5", entries[2].value);

  // Each id is claimable exactly once.
  EXPECT_TRUE(client.Wait(ids[0]).IsIOError());
  // The connection still serves blocking calls afterwards.
  EXPECT_TRUE(client.Ping().ok());
}

// The reactor thread model is O(shards + workers): parking 64 idle
// connections on the server must not create a single extra thread.
TEST_F(ServerTest, ThreadCountIndependentOfConnectionCount) {
  Client client(MakeClientOptions());
  ASSERT_TRUE(client.Ping().ok());  // serving path fully warmed up

  const int before = CountProcessThreads();
  ASSERT_GT(before, 0);

  std::vector<int> fds;
  for (int i = 0; i < 64; i++) fds.push_back(RawConnect());
  ASSERT_TRUE(WaitFor([this] {
    return server_->stats().connections_active >= 65;  // 64 + the client
  })) << "server never registered all 64 connections";

  EXPECT_EQ(before, CountProcessThreads())
      << "thread count must not scale with connections";

  for (int fd : fds) ::close(fd);
}

TEST_F(ServerTest, ShutdownWithInFlightDbWork) {
  constexpr int kClients = 4;
  constexpr int kOps = 50;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> submitted(
      kClients);
  const std::string value(1024, 's');
  for (int c = 0; c < kClients; c++) {
    clients.push_back(std::make_unique<Client>(MakeClientOptions()));
    ASSERT_TRUE(clients[c]->Connect().ok());
    for (int i = 0; i < kOps; i++) {
      std::string key = "sd" + std::to_string(c) + "-" + std::to_string(i);
      uint64_t id = clients[c]->SubmitPut(key, value);
      if (id != 0) submitted[c].emplace_back(id, key);
    }
  }

  // Stop() races the in-flight pipelines: every request the server
  // accepted must either be answered (and durably applied) or cleanly cut
  // by the half-close — never crash, hang, or corrupt.
  std::thread stopper([this] { server_->Stop(); });
  std::vector<std::string> acked;
  for (int c = 0; c < kClients; c++) {
    for (const auto& [id, key] : submitted[c]) {
      if (clients[c]->Wait(id).ok()) acked.push_back(key);
    }
  }
  stopper.join();
  EXPECT_FALSE(server_->running());

  for (const std::string& key : acked) {
    std::string got;
    EXPECT_TRUE(db_->Get(ReadOptions(), key, &got).ok())
        << "acknowledged put " << key << " missing from DB";
  }
}

TEST_F(ServerTest, StopBlocksConcurrentSecondCaller) {
  // Enough pipelined work that teardown is not instantaneous.
  int fd = RawConnect();
  std::string wire_out, payload;
  wire::EncodePut("cc", std::string(4096, 'c'), &payload);
  for (uint64_t id = 1; id <= 50; id++) {
    wire::BuildFrame(id, wire::Opcode::kPut, payload, &wire_out);
  }
  ASSERT_TRUE(RawSend(fd, wire_out));

  // Both concurrent callers must observe a fully-stopped server the
  // moment their Stop() returns.
  std::atomic<int> observed_stopped{0};
  auto stop_and_check = [&] {
    server_->Stop();
    if (!server_->running()) observed_stopped++;
  };
  std::thread t1(stop_and_check);
  std::thread t2(stop_and_check);
  RawReadBodies(fd, 50);  // drain so the flush-then-close can complete
  t1.join();
  t2.join();
  ::close(fd);
  EXPECT_EQ(2, observed_stopped.load());
}

TEST(ServerLifecycleTest, StopBeforeStartDoesNotBreakLifecycle) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());

  ServerOptions server_options;
  server_options.port = 0;
  Server server(db.get(), server_options);
  server.Stop();  // Stop before Start: must not latch the stopping state
  server.Stop();
  ASSERT_TRUE(server.Start().ok()) << "Stop() before Start() broke Start()";

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.connect_retries = 1;
  Client client(client_options);
  EXPECT_TRUE(client.Ping().ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  // One lifecycle per instance: a second Start() is refused, not UB.
  EXPECT_FALSE(server.Start().ok());
}

// The shutdown summary is printed after Stop(): it still names the reactor
// count that Start() resolved.
TEST(ServerLifecycleTest, StatsKeepReactorCountAfterStop) {
  ServerOptions server_options;
  server_options.num_shards = 2;
  OwnedServer owned = StartOwnedServer(server_options);
  EXPECT_EQ(owned.server->num_shards(), 2);
  owned.server->Stop();
  EXPECT_EQ(owned.server->num_shards(), 2);
  const std::string text = owned.server->StatsString();
  EXPECT_NE(text.find(" shards=2"), std::string::npos) << text;
}

// Stop() wakes the acceptor rather than waiting out a poll timeout, so a
// server stopped right after Start() stops at once.  One ping first: it
// proves the acceptor thread is running and parked in poll again, where a
// Stop() that raced ahead of the thread's start would find nothing to wake.
TEST(ServerLifecycleTest, StopRightAfterStartIsPrompt) {
  OwnedServer owned = StartOwnedServer(ServerOptions());
  {
    ClientOptions client_options;
    client_options.port = owned.server->port();
    Client client(client_options);
    ASSERT_TRUE(client.Ping().ok());
  }
  const auto start = std::chrono::steady_clock::now();
  owned.server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(owned.server->running());
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
}

// A peer that stops reading while pipelining requests must pause the
// server's reads at the soft output limit (counted as a stall) — and the
// stream must fully recover once the peer drains.
TEST(ServerBackpressureTest, SlowReaderPausesReadsAndRecovers) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.output_buffer_soft_limit = 32 << 10;
  server_options.sndbuf_bytes = 8 << 10;
  OwnedServer owned = StartOwnedServer(server_options);
  const std::string big(8192, 'b');
  ASSERT_TRUE(owned.db->Put(WriteOptions(), "big", big).ok());

  int fd = RawConnectTo(owned.server->port(), /*rcvbuf_bytes=*/4096);
  std::string get_payload;
  wire::EncodeKey("big", &get_payload);

  // Wave 1: pipeline 32 GETs and read nothing.  ~256KB of responses queue
  // against an ~12KB transport pipe, so the buffer blows past the soft
  // limit and sticks there.
  std::string wave;
  for (uint64_t id = 1; id <= 32; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));
  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().output_buffer_hwm >
           server_options.output_buffer_soft_limit;
  })) << "responses never backed up past the soft limit";

  // Wave 2: more requests while the buffer is over the limit — decoding
  // them must stall instead of ballooning the buffer further.
  wave.clear();
  for (uint64_t id = 33; id <= 64; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));
  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().backpressure_stalls >= 1;
  })) << "paused read was never counted as a backpressure stall";

  // Drain: every one of the 64 responses arrives intact and in full.
  std::string buffer;
  char chunk[16 << 10];
  std::map<uint64_t, size_t> value_sizes;
  while (value_sizes.size() < 64) {
    Slice body;
    size_t consumed;
    wire::FrameResult r =
        wire::DecodeFrame(buffer.data(), buffer.size(), &body, &consumed);
    if (r == wire::FrameResult::kOk) {
      uint64_t id;
      wire::Opcode op;
      Slice p;
      ASSERT_TRUE(wire::ParseBody(body, &id, &op, &p));
      ASSERT_EQ(wire::Opcode::kGet, op);
      Status s;
      ASSERT_TRUE(wire::DecodeStatus(&p, &s));
      ASSERT_TRUE(s.ok()) << s.ToString();
      Slice value;
      ASSERT_TRUE(GetLengthPrefixedSlice(&p, &value));
      value_sizes[id] = value.size();
      buffer.erase(0, consumed);
      continue;
    }
    ASSERT_EQ(wire::FrameResult::kNeedMore, r);
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "connection died before all responses arrived";
    buffer.append(chunk, static_cast<size_t>(got));
  }
  for (const auto& [id, size] : value_sizes) {
    EXPECT_EQ(big.size(), size) << "response " << id;
  }
  ::close(fd);
}

// A peer that never drains past the hard output cap is disconnected
// instead of buffering the server into the ground.  The cap exists because
// requests already on workers keep completing while reading is paused, so
// the wave is SCANs — which always run on workers — each returning the
// 16 KB record: all 64 are dispatched before the first response lands.
TEST(ServerBackpressureTest, OverflowPastHardLimitDisconnects) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.output_buffer_soft_limit = 4 << 10;
  server_options.output_buffer_hard_limit = 64 << 10;
  server_options.sndbuf_bytes = 8 << 10;
  OwnedServer owned = StartOwnedServer(server_options);
  ASSERT_TRUE(
      owned.db->Put(WriteOptions(), "big", std::string(16 << 10, 'B')).ok());

  int fd = RawConnectTo(owned.server->port(), /*rcvbuf_bytes=*/4096);
  wire::ScanRequest scan;
  scan.start_key = "big";
  scan.limit = 1;
  std::string scan_payload, wave;
  wire::EncodeScan(scan, &scan_payload);
  for (uint64_t id = 1; id <= 64; id++) {
    wire::BuildFrame(id, wire::Opcode::kScan, scan_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));

  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().overflow_disconnects >= 1;
  })) << "hard-limit overflow never disconnected the slow reader";

  // The socket ends in EOF or reset — never a hang.
  char chunk[16 << 10];
  while (true) {
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
  }
  ::close(fd);
  EXPECT_EQ(0u, owned.server->stats().connections_active);
}

// Reads answered inline are queued while the reactor decodes, so decoding
// itself stops at the soft limit: 64 pipelined GETs of a memtable-resident
// 16 KB value never buffer more than the soft limit plus one response, the
// hard limit is never reached, and all 64 are answered once the peer
// drains.
TEST(ServerBackpressureTest, InlineReadsStopAtSoftLimit) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.output_buffer_soft_limit = 4 << 10;
  server_options.output_buffer_hard_limit = 64 << 10;
  server_options.sndbuf_bytes = 8 << 10;
  OwnedServer owned = StartOwnedServer(server_options);
  const std::string big(16 << 10, 'B');
  ASSERT_TRUE(owned.db->Put(WriteOptions(), "big", big).ok());

  int fd = RawConnectTo(owned.server->port(), /*rcvbuf_bytes=*/4096);
  std::string get_payload, wave;
  wire::EncodeKey("big", &get_payload);
  for (uint64_t id = 1; id <= 64; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }
  ASSERT_TRUE(::send(fd, wave.data(), wave.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(wave.size()));
  ASSERT_TRUE(WaitFor([&] {
    return owned.server->stats().backpressure_stalls >= 1;
  })) << "inline responses never paused decoding";

  // One response frame: the value plus its status, framing and header.
  std::string response_payload, response_frame;
  wire::EncodeStatus(Status::OK(), &response_payload);
  PutLengthPrefixedSlice(&response_payload, big);
  wire::BuildFrame(64, wire::Opcode::kGet, response_payload, &response_frame);
  const uint64_t bound =
      server_options.output_buffer_soft_limit + response_frame.size();

  std::string buffer;
  char chunk[16 << 10];
  std::map<uint64_t, size_t> value_sizes;
  while (value_sizes.size() < 64) {
    Slice body;
    size_t consumed;
    wire::FrameResult r =
        wire::DecodeFrame(buffer.data(), buffer.size(), &body, &consumed);
    if (r == wire::FrameResult::kOk) {
      uint64_t id;
      wire::Opcode op;
      Slice p;
      ASSERT_TRUE(wire::ParseBody(body, &id, &op, &p));
      ASSERT_EQ(wire::Opcode::kGet, op);
      Status s;
      ASSERT_TRUE(wire::DecodeStatus(&p, &s));
      ASSERT_TRUE(s.ok()) << s.ToString();
      Slice value;
      ASSERT_TRUE(GetLengthPrefixedSlice(&p, &value));
      value_sizes[id] = value.size();
      buffer.erase(0, consumed);
      continue;
    }
    ASSERT_EQ(wire::FrameResult::kNeedMore, r);
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "connection died before all responses arrived";
    buffer.append(chunk, static_cast<size_t>(got));
  }
  ::close(fd);
  for (const auto& [id, size] : value_sizes) {
    EXPECT_EQ(big.size(), size) << "response " << id;
  }
  const ServerStats stats = owned.server->stats();
  EXPECT_LE(stats.output_buffer_hwm, bound);
  EXPECT_EQ(0u, stats.overflow_disconnects);
  EXPECT_EQ(64u, stats.inline_reads);
  EXPECT_EQ(0u, stats.deferred_reads);
}

// Fairness: a connection that keeps its socket full of inline GETs, and
// drains every answer, must not hold the reactor.  One decode pass takes at
// most max_pipeline requests, so a second connection on the same shard is
// answered after a few passes of the first one's reads, not after all the
// reads its socket holds.
TEST(ServerFairnessTest, PipeliningInlineReaderDoesNotStarveOthers) {
  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.num_shards = 1;
  server_options.max_pipeline = 16;
  OwnedServer owned = StartOwnedServer(server_options);
  ASSERT_TRUE(owned.db->Put(WriteOptions(), "hot", "v").ok());
  std::string get_payload, wave;
  wire::EncodeKey("hot", &get_payload);
  for (uint64_t id = 1; id <= 4096; id++) {
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &wave);
  }

  // The hog: one thread keeps the socket full, another drains it.
  int hog = RawConnectTo(owned.server->port());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hog_bytes{0};
  std::thread sender([&] {
    while (!stop.load() &&
           ::send(hog, wave.data(), wave.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  std::thread drainer([&] {
    char chunk[64 << 10];
    ssize_t got;
    while ((got = ::recv(hog, chunk, sizeof(chunk), 0)) > 0) {
      hog_bytes.fetch_add(static_cast<uint64_t>(got));
    }
  });
  const bool hog_running =
      WaitFor([&] { return owned.server->stats().inline_reads >= 5000; });

  // The other connection: one GET at a time, each answered within 10 s.
  int other = RawConnectTo(owned.server->port());
  timeval timeout{10, 0};
  ::setsockopt(other, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const uint64_t hog_bytes_before = hog_bytes.load();
  int answered = 0;
  // Inline reads the server answered while each GET of this connection
  // waited: the hog's, plus the GET itself.
  std::vector<uint64_t> reads_while_waiting;
  std::string buffer;
  char chunk[4096];
  for (uint64_t id = 1; id <= 50; id++) {
    const uint64_t reads_before = owned.server->stats().inline_reads;
    std::string frame;
    wire::BuildFrame(id, wire::Opcode::kGet, get_payload, &frame);
    if (::send(other, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      break;
    }
    Slice body;
    size_t consumed;
    wire::FrameResult r;
    while ((r = wire::DecodeFrame(buffer.data(), buffer.size(), &body,
                                  &consumed)) ==
           wire::FrameResult::kNeedMore) {
      ssize_t got = ::recv(other, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
    }
    if (r != wire::FrameResult::kOk) break;
    buffer.erase(0, consumed);
    answered++;
    reads_while_waiting.push_back(owned.server->stats().inline_reads -
                                  reads_before);
  }
  const uint64_t hog_bytes_during = hog_bytes.load() - hog_bytes_before;

  stop.store(true);
  ::shutdown(hog, SHUT_RDWR);
  sender.join();
  drainer.join();
  ::close(hog);
  ::close(other);
  ASSERT_TRUE(hog_running) << "the pipelining connection never got going";
  EXPECT_EQ(50, answered) << "the second connection starved";
  // A pass takes 16 requests and the reactor answers this connection
  // within a couple of loop iterations; the median tolerates the odd
  // descheduled test thread.  Draining the hog's socket instead would take
  // thousands of its reads (one 64 KB chunk holds ~2500 GETs).
  std::sort(reads_while_waiting.begin(), reads_while_waiting.end());
  ASSERT_FALSE(reads_while_waiting.empty());
  const uint64_t median = reads_while_waiting[reads_while_waiting.size() / 2];
  EXPECT_LE(median, 512u) << "one connection held the reactor";
  EXPECT_GT(hog_bytes_during, 0u)
      << "the pipelining connection stalled while the other was served";
}

// A read the reactor cannot answer from memory goes to a worker and still
// returns the right value: a cold reopen with a tiny block cache leaves
// every on-disk key a cache miss behind an unopened table reader.
TEST(ServerColdReadTest, ColdGetAndMultiGetFallBackToWorkers) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.block_cache_capacity = 4 << 10;
  auto key = [](int i) { return "cold" + std::to_string(10000 + i); };
  auto value = [](int i) { return std::to_string(i) + std::string(200, 'c'); };
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), value(i)).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "hot", "in-memtable").ok());

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.connect_retries = 1;
  Client client(client_options);

  std::string got;
  ASSERT_TRUE(client.Get(key(1500), &got).ok());
  EXPECT_EQ(value(1500), got);
  EXPECT_EQ(1u, server.stats().deferred_reads);

  // The worker reads only the keys the reactor left: never "hot".
  const uint64_t keys_before = db->GetStats().multiget_keys;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(client
                  .MultiGet({"hot", key(300), "cold-absent", key(1900)},
                            &values, &statuses)
                  .ok());
  const uint64_t keys_read = db->GetStats().multiget_keys - keys_before;
  EXPECT_GE(keys_read, 4u + 2u);
  EXPECT_LE(keys_read, 4u + 3u);
  ASSERT_EQ(4u, statuses.size());
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ("in-memtable", values[0]);
  ASSERT_TRUE(statuses[1].ok()) << statuses[1].ToString();
  EXPECT_EQ(value(300), values[1]);
  EXPECT_TRUE(statuses[2].IsNotFound()) << statuses[2].ToString();
  ASSERT_TRUE(statuses[3].ok()) << statuses[3].ToString();
  EXPECT_EQ(value(1900), values[3]);
  EXPECT_EQ(2u, server.stats().deferred_reads);

  // A memtable key never needs a worker.
  ASSERT_TRUE(client.Get("hot", &got).ok());
  EXPECT_EQ("in-memtable", got);
  const ServerStats stats = server.stats();
  EXPECT_EQ(1u, stats.inline_reads);
  EXPECT_EQ(2u, stats.deferred_reads);
  EXPECT_EQ(2u, stats.gets);
  EXPECT_EQ(1u, stats.mgets);
  std::string text = server.StatsString();
  EXPECT_NE(std::string::npos,
            text.find("inline_reads=1 deferred_reads=2"))
      << text;
  server.Stop();
}

// Wire-protocol unit coverage that needs no socket.
TEST(WireProtocolTest, MultiGetPayloadRoundTripAndRejects) {
  std::vector<std::string> keys = {"a", "", std::string("b\0c", 3)};
  std::string payload;
  wire::EncodeMultiGet(keys, &payload);
  std::vector<Slice> decoded_keys;
  ASSERT_TRUE(wire::DecodeMultiGet(payload, &decoded_keys));
  ASSERT_EQ(keys.size(), decoded_keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(keys[i], decoded_keys[i].ToString());
  }

  // Count that exceeds the remaining bytes / truncated keys / trailing
  // garbage are all rejected.
  EXPECT_FALSE(wire::DecodeMultiGet(Slice("\x03", 1), &decoded_keys));
  EXPECT_FALSE(wire::DecodeMultiGet(Slice("\x01\x05xy", 4), &decoded_keys));
  std::string trailing = payload + "junk";
  EXPECT_FALSE(wire::DecodeMultiGet(trailing, &decoded_keys));

  std::vector<wire::MultiGetEntry> entries(3);
  entries[0].code = wire::StatusCode::kOk;
  entries[0].value = "value-a";
  entries[1].code = wire::StatusCode::kNotFound;
  entries[2].code = wire::StatusCode::kOk;
  entries[2].value = "";
  std::string resp;
  wire::EncodeMultiGetResponse(entries, &resp);
  std::vector<wire::MultiGetEntry> decoded;
  ASSERT_TRUE(wire::DecodeMultiGetResponse(resp, &decoded));
  ASSERT_EQ(3u, decoded.size());
  EXPECT_EQ(wire::StatusCode::kOk, decoded[0].code);
  EXPECT_EQ("value-a", decoded[0].value);
  EXPECT_EQ(wire::StatusCode::kNotFound, decoded[1].code);
  EXPECT_TRUE(decoded[1].value.empty());
  EXPECT_EQ(wire::StatusCode::kOk, decoded[2].code);
  EXPECT_TRUE(decoded[2].value.empty());
}

TEST(WireProtocolTest, DecodeFrameEdgeCases) {
  std::string frame;
  wire::BuildFrame(5, wire::Opcode::kPing, Slice(), &frame);

  // Every strict prefix is kNeedMore.
  for (size_t n = 0; n < frame.size(); n++) {
    Slice body;
    size_t consumed;
    EXPECT_EQ(wire::FrameResult::kNeedMore,
              wire::DecodeFrame(frame.data(), n, &body, &consumed))
        << "prefix " << n;
  }

  Slice body;
  size_t consumed;
  ASSERT_EQ(wire::FrameResult::kOk,
            wire::DecodeFrame(frame.data(), frame.size(), &body, &consumed));
  EXPECT_EQ(frame.size(), consumed);

  // Flipping any body byte breaks the checksum.
  std::string bad = frame;
  bad[wire::kFrameHeaderSize] ^= 0x01;
  EXPECT_EQ(wire::FrameResult::kBadCrc,
            wire::DecodeFrame(bad.data(), bad.size(), &body, &consumed));

  // A too-small length prefix is rejected outright.
  std::string tiny;
  PutFixed32(&tiny, 3);
  tiny.append(16, '\0');
  EXPECT_EQ(wire::FrameResult::kTooLarge,
            wire::DecodeFrame(tiny.data(), tiny.size(), &body, &consumed));
}

// ---------------------------------------------------------------------------
// Server over FaultInjectionEnv: a WAL sync failure must surface to the
// client as a decoded ERROR status on that request — not a dropped
// connection — and the session must keep working once the fault clears.

TEST(ServerFaultTest, WalSyncFailureSurfacesAsErrorFrame) {
  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  Options options;
  options.env = &fault;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.sync_wal = true;  // every Put syncs, so a sync fault hits it
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/srv", &db).ok());

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  Server server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.connect_retries = 1;
  Client client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Put("before", "ok").ok());

  // Exactly one injected sync failure: the in-flight Put must come back
  // as a non-OK decoded status carrying the injection message.
  fault.SetErrorSchedule(kFaultSync, /*seed=*/7, /*one_in=*/1,
                         /*max_failures=*/1);
  Status s = client.Put("during", "fails");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos) << s.ToString();
  fault.ClearErrorSchedule();

  // Same connection, not a reconnect: the session stayed up.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Put("after", "ok").ok());
  std::string got;
  EXPECT_TRUE(client.Get("after", &got).ok());
  EXPECT_EQ("ok", got);
  EXPECT_TRUE(client.Get("during", &got).IsNotFound());

  server.Stop();
}

// A connection that dies with requests pipelined must fail every pending
// Wait* promptly and distinctly — not hang on a dead socket, and not claim
// the ids were never submitted.  The "server" here is a raw socket the
// test controls exactly: it answers the first request, then resets.
TEST(ClientPipelineFailureTest, BrokenConnectionFailsOutstandingWaits) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  // A PING frame is header (8) + id (8) + opcode (1) = 17 bytes; the fake
  // server waits for all three submits before acting so the test is not
  // racing the client's sends.
  constexpr size_t kThreePings = 3 * 17;
  std::thread fake_server([listen_fd] {
    int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    size_t got = 0;
    char buf[256];
    while (got < kThreePings) {
      ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    // Answer the first request (id 1) only, then drop the connection.
    std::string status_payload, frame;
    wire::EncodeStatus(Status::OK(), &status_payload);
    wire::BuildFrame(1, wire::Opcode::kPing, status_payload, &frame);
    ::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(conn);
  });

  ClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.connect_retries = 0;
  options.op_timeout_ms = 5000;  // a hang fails the test via this timeout
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());

  const uint64_t id1 = client.SubmitPing();
  const uint64_t id2 = client.SubmitPing();
  const uint64_t id3 = client.SubmitPing();
  ASSERT_EQ(id1, 1u);
  ASSERT_NE(id2, 0u);
  ASSERT_NE(id3, 0u);

  // Waiting on id2 first: the client buffers id1's response, then hits the
  // peer close and reports the transport error against id2 itself.
  Status s2 = client.Wait(id2);
  EXPECT_TRUE(s2.IsIOError()) << s2.ToString();
  EXPECT_FALSE(client.connected());

  // id1's response arrived before the reset and stays claimable.
  EXPECT_TRUE(client.Wait(id1).ok());

  // id3 was in flight when the connection died: the distinct
  // connection-lost error, exactly once.
  Status s3 = client.Wait(id3);
  EXPECT_TRUE(s3.IsIOError()) << s3.ToString();
  EXPECT_NE(s3.ToString().find("connection lost with request in flight"),
            std::string::npos)
      << s3.ToString();
  Status again = client.Wait(id3);
  EXPECT_NE(again.ToString().find("not in flight"), std::string::npos)
      << again.ToString();

  fake_server.join();
  ::close(listen_fd);
}

// Same failure, driven through a real server killed mid-pipeline: pending
// waits must all resolve with IOErrors, and a fresh connect afterwards
// must find the durable data intact.
TEST(ClientPipelineFailureTest, ServerStopMidPipeline) {
  auto owned = StartOwnedServer(ServerOptions());
  ClientOptions options;
  options.port = owned.server->port();
  options.connect_retries = 0;
  options.op_timeout_ms = 5000;
  Client client(options);
  ASSERT_TRUE(client.Put("durable", "yes").ok());

  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; i++) {
    uint64_t id = client.SubmitGet("durable");
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  owned.server->Stop();

  // Every wait resolves (OK for responses that raced out before the stop,
  // IOError otherwise) — none may hang past the op timeout or crash.
  int io_errors = 0;
  for (uint64_t id : ids) {
    std::string value;
    Status s = client.WaitGet(id, &value);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      io_errors++;
    } else {
      EXPECT_EQ(value, "yes");
    }
  }
  // The server drains gracefully, so responses may all have made it out;
  // what matters is that nothing hung and errors (if any) were IOErrors.
  SUCCEED() << io_errors << " of " << ids.size() << " waits failed";
}

}  // namespace
}  // namespace iamdb
