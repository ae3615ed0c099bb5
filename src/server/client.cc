#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "memtable/write_batch.h"
#include "util/coding.h"

namespace iamdb {

namespace {

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

void SetOpTimeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// Non-blocking connect with a deadline, restored to blocking on success.
int ConnectWithTimeout(const std::string& host, int port, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }

  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
    if (rc == 1 && (pfd.revents & POLLOUT)) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
    } else {
      rc = -1;
    }
  }
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Response decoders shared by the blocking calls and the typed waits: `s`
// is the response's decoded status, `resp` the payload bytes after it.
Status DecodeString(const Status& s, const std::string& resp,
                    const char* malformed, std::string* value) {
  if (!s.ok()) return s;
  Slice p(resp), v;
  if (!GetLengthPrefixedSlice(&p, &v)) return Status::Corruption(malformed);
  value->assign(v.data(), v.size());
  return Status::OK();
}

Status DecodeMultiGet(const Status& s, const std::string& resp,
                      std::vector<wire::MultiGetEntry>* entries) {
  if (!s.ok()) return s;
  if (!wire::DecodeMultiGetResponse(resp, entries)) {
    return Status::Corruption("malformed MGET response");
  }
  return Status::OK();
}

Status DecodeScan(const Status& s, const std::string& resp,
                  wire::ScanResponse* decoded) {
  if (!s.ok()) return s;
  if (!wire::DecodeScanResponse(resp, decoded)) {
    return Status::Corruption("malformed SCAN response");
  }
  return Status::OK();
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() { Close(); }

Status Client::Connect() {
  std::lock_guard<std::mutex> l(mu_);
  return ConnectLocked();
}

Status Client::ConnectLocked() {
  if (fd_ >= 0) return Status::OK();
  int backoff = options_.retry_backoff_ms;
  for (int attempt = 0; attempt <= options_.connect_retries; attempt++) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
    int fd = ConnectWithTimeout(options_.host, options_.port,
                                options_.connect_timeout_ms);
    if (fd >= 0) {
      SetOpTimeout(fd, options_.op_timeout_ms);
      fd_ = fd;
      recv_buffer_.clear();
      return Status::OK();
    }
  }
  return Status::IOError("connect failed",
                         options_.host + ":" + std::to_string(options_.port));
}

void Client::Close() {
  std::lock_guard<std::mutex> l(mu_);
  CloseLocked();
}

void Client::CloseLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_buffer_.clear();
  // Pipelined requests still in flight died with the connection.  Remember
  // their ids so each pending Wait* fails with the distinct connection-lost
  // error instead of hanging or claiming the id was never submitted.
  // Already received responses in ready_ stay claimable.
  for (const auto& [id, opcode] : inflight_) lost_.insert(id);
  inflight_.clear();
}

bool Client::connected() const {
  std::lock_guard<std::mutex> l(mu_);
  return fd_ >= 0;
}

Status Client::ReadFrame(std::string* body) {
  char chunk[64 << 10];
  while (true) {
    Slice body_slice;
    size_t consumed = 0;
    wire::FrameResult r = wire::DecodeFrame(
        recv_buffer_.data(), recv_buffer_.size(), &body_slice, &consumed);
    if (r == wire::FrameResult::kOk) {
      body->assign(body_slice.data(), body_slice.size());
      recv_buffer_.erase(0, consumed);
      return Status::OK();
    }
    if (r == wire::FrameResult::kBadCrc) {
      return Status::Corruption("response checksum mismatch");
    }
    if (r == wire::FrameResult::kTooLarge) {
      return Status::Corruption("response frame length out of range");
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::IOError("receive timeout");
    }
    if (n <= 0) return Status::IOError("connection closed by server");
    recv_buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status Client::CallOnce(wire::Opcode opcode, const Slice& payload,
                        std::string* response_payload) {
  // Submit + wait, so a blocking call composes with responses still in
  // flight from the pipelined API (they get buffered, not mismatched).
  const uint64_t id = SubmitLocked(opcode, payload);
  if (id == 0) {
    return Status::IOError("send failed",
                           options_.host + ":" + std::to_string(options_.port));
  }
  return WaitLocked(id, response_payload);
}

Status Client::Call(wire::Opcode opcode, const Slice& payload,
                    bool idempotent, std::string* response_payload) {
  std::lock_guard<std::mutex> l(mu_);
  const bool was_connected = fd_ >= 0;
  Status s = CallOnce(opcode, payload, response_payload);
  // Retry once on a transport error over a pre-existing (possibly stale)
  // connection; fresh failures and non-idempotent ops surface directly.
  if (s.IsIOError() && idempotent && was_connected && fd_ < 0) {
    s = CallOnce(opcode, payload, response_payload);
  }
  return s;
}

Status Client::Ping() {
  std::string resp;
  return Call(wire::Opcode::kPing, Slice(), /*idempotent=*/true, &resp);
}

Status Client::Put(const Slice& key, const Slice& value) {
  std::string payload, resp;
  wire::EncodePut(key, value, &payload);
  return Call(wire::Opcode::kPut, payload, /*idempotent=*/false, &resp);
}

Status Client::Get(const Slice& key, std::string* value) {
  std::string payload, resp;
  wire::EncodeKey(key, &payload);
  Status s = Call(wire::Opcode::kGet, payload, /*idempotent=*/true, &resp);
  return DecodeString(s, resp, "malformed GET response", value);
}

Status Client::MultiGet(const std::vector<std::string>& keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  std::string payload, resp;
  wire::EncodeMultiGet(keys, &payload);
  Status s =
      Call(wire::Opcode::kMultiGet, payload, /*idempotent=*/true, &resp);
  std::vector<wire::MultiGetEntry> entries;
  s = DecodeMultiGet(s, resp, &entries);
  if (!s.ok()) return s;
  if (entries.size() != keys.size()) {
    return Status::Corruption("malformed MGET response");
  }
  values->clear();
  values->reserve(entries.size());
  statuses->clear();
  statuses->reserve(entries.size());
  for (wire::MultiGetEntry& e : entries) {
    statuses->push_back(wire::MakeStatus(e.code, Slice()));
    values->push_back(std::move(e.value));
  }
  return Status::OK();
}

Status Client::Delete(const Slice& key) {
  std::string payload, resp;
  wire::EncodeKey(key, &payload);
  return Call(wire::Opcode::kDelete, payload, /*idempotent=*/false, &resp);
}

Status Client::Write(const WriteBatch& batch) {
  std::string resp;
  return Call(wire::Opcode::kWrite, WriteBatchInternal::Contents(&batch),
              /*idempotent=*/false, &resp);
}

Status Client::Scan(const Slice& start_key, const Slice& end_key,
                    uint32_t limit, std::vector<wire::KeyValue>* entries,
                    bool* truncated) {
  wire::ScanRequest req;
  req.start_key = start_key.ToString();
  req.end_key = end_key.ToString();
  req.limit = limit;
  std::string payload, resp;
  wire::EncodeScan(req, &payload);
  Status s = Call(wire::Opcode::kScan, payload, /*idempotent=*/true, &resp);
  wire::ScanResponse decoded;
  s = DecodeScan(s, resp, &decoded);
  if (!s.ok()) return s;
  *entries = std::move(decoded.entries);
  if (truncated != nullptr) *truncated = decoded.truncated;
  return Status::OK();
}

Status Client::GetStats(DbStats* stats) {
  std::string payload, resp;
  wire::EncodeInfo(Slice(), &payload);
  Status s = Call(wire::Opcode::kInfo, payload, /*idempotent=*/true, &resp);
  if (!s.ok()) return s;
  Slice p(resp), encoded;
  if (!GetLengthPrefixedSlice(&p, &encoded) ||
      !wire::DecodeDbStats(encoded, stats)) {
    return Status::Corruption("malformed INFO response");
  }
  return Status::OK();
}

Status Client::GetProperty(const Slice& property, std::string* value) {
  std::string payload, resp;
  wire::EncodeInfo(property, &payload);
  Status s = Call(wire::Opcode::kInfo, payload, /*idempotent=*/true, &resp);
  return DecodeString(s, resp, "malformed INFO response", value);
}

// --- pipelined API --------------------------------------------------------

uint64_t Client::SubmitLocked(wire::Opcode opcode, const Slice& payload) {
  if (!ConnectLocked().ok()) return 0;
  const uint64_t id = next_request_id_++;
  std::string frame;
  wire::BuildFrame(id, opcode, payload, &frame);
  if (!SendAll(fd_, frame.data(), frame.size())) {
    CloseLocked();
    return 0;
  }
  inflight_.emplace(id, opcode);
  return id;
}

uint64_t Client::SubmitPing() {
  std::lock_guard<std::mutex> l(mu_);
  return SubmitLocked(wire::Opcode::kPing, Slice());
}

uint64_t Client::SubmitPut(const Slice& key, const Slice& value) {
  std::string payload;
  wire::EncodePut(key, value, &payload);
  std::lock_guard<std::mutex> l(mu_);
  return SubmitLocked(wire::Opcode::kPut, payload);
}

uint64_t Client::SubmitGet(const Slice& key) {
  std::string payload;
  wire::EncodeKey(key, &payload);
  std::lock_guard<std::mutex> l(mu_);
  return SubmitLocked(wire::Opcode::kGet, payload);
}

uint64_t Client::SubmitMultiGet(const std::vector<std::string>& keys) {
  std::string payload;
  wire::EncodeMultiGet(keys, &payload);
  std::lock_guard<std::mutex> l(mu_);
  return SubmitLocked(wire::Opcode::kMultiGet, payload);
}

uint64_t Client::SubmitScan(const wire::ScanRequest& req) {
  std::string payload;
  wire::EncodeScan(req, &payload);
  std::lock_guard<std::mutex> l(mu_);
  return SubmitLocked(wire::Opcode::kScan, payload);
}

Status Client::WaitLocked(uint64_t id, std::string* response_payload) {
  auto DecodeReady = [&](const std::string& body_payload) {
    Slice rest(body_payload);
    Status op_status;
    if (!wire::DecodeStatus(&rest, &op_status)) {
      return Status::Corruption("malformed response status");
    }
    if (response_payload != nullptr) {
      response_payload->assign(rest.data(), rest.size());
    }
    return op_status;
  };

  while (true) {
    auto ready = ready_.find(id);
    if (ready != ready_.end()) {
      std::string body_payload = std::move(ready->second);
      ready_.erase(ready);
      return DecodeReady(body_payload);
    }
    auto lost = lost_.find(id);
    if (lost != lost_.end()) {
      lost_.erase(lost);
      return Status::IOError("connection lost with request in flight",
                             "id " + std::to_string(id));
    }
    auto inflight = inflight_.find(id);
    if (inflight == inflight_.end()) {
      return Status::IOError("request is not in flight",
                             "id " + std::to_string(id));
    }

    std::string body;
    Status s = ReadFrame(&body);
    if (!s.ok()) {
      CloseLocked();
      lost_.erase(id);  // this wait reports the failure for its own id
      return s;
    }
    uint64_t resp_id;
    wire::Opcode resp_op;
    Slice resp_payload;
    if (!wire::ParseBody(body, &resp_id, &resp_op, &resp_payload)) {
      CloseLocked();
      lost_.erase(id);
      return Status::Corruption("malformed response body");
    }
    if (resp_op == wire::Opcode::kError) {
      // id 0 = the stream is unrecoverable (framing error); a nonzero id
      // answers just that request and the connection survives.
      Status err;
      Slice p = resp_payload;
      if (!wire::DecodeStatus(&p, &err)) {
        err = Status::Corruption("server rejected request");
      }
      if (resp_id == 0) {
        CloseLocked();
        return err;
      }
      inflight_.erase(resp_id);
      if (resp_id == id) return err;
      continue;
    }
    auto expected = inflight_.find(resp_id);
    if (expected == inflight_.end() || expected->second != resp_op) {
      CloseLocked();
      lost_.erase(id);
      return Status::Corruption("response correlation mismatch");
    }
    inflight_.erase(expected);
    if (resp_id == id) {
      return DecodeReady(std::string(resp_payload.data(),
                                     resp_payload.size()));
    }
    ready_.emplace(resp_id,
                   std::string(resp_payload.data(), resp_payload.size()));
  }
}

Status Client::Wait(uint64_t id, std::string* response_payload) {
  std::lock_guard<std::mutex> l(mu_);
  return WaitLocked(id, response_payload);
}

Status Client::WaitGet(uint64_t id, std::string* value) {
  std::string resp;
  Status s = Wait(id, &resp);
  return DecodeString(s, resp, "malformed GET response", value);
}

Status Client::WaitMultiGet(uint64_t id,
                            std::vector<wire::MultiGetEntry>* entries) {
  std::string resp;
  Status s = Wait(id, &resp);
  return DecodeMultiGet(s, resp, entries);
}

Status Client::WaitScan(uint64_t id, wire::ScanResponse* resp) {
  std::string payload;
  Status s = Wait(id, &payload);
  return DecodeScan(s, payload, resp);
}

}  // namespace iamdb
