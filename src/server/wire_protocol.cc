#include "server/wire_protocol.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace iamdb::wire {

namespace {

bool KnownOpcode(uint8_t b) {
  switch (static_cast<Opcode>(b)) {
    case Opcode::kPing:
    case Opcode::kPut:
    case Opcode::kGet:
    case Opcode::kDelete:
    case Opcode::kWrite:
    case Opcode::kScan:
    case Opcode::kInfo:
    case Opcode::kMultiGet:
    case Opcode::kError:
      return true;
  }
  return false;
}

}  // namespace

StatusCode CodeOf(const Status& s) {
  if (s.ok()) return StatusCode::kOk;
  if (s.IsNotFound()) return StatusCode::kNotFound;
  if (s.IsCorruption()) return StatusCode::kCorruption;
  if (s.IsNotSupported()) return StatusCode::kNotSupported;
  if (s.IsInvalidArgument()) return StatusCode::kInvalidArgument;
  if (s.IsBusy()) return StatusCode::kBusy;
  return StatusCode::kIOError;
}

Status MakeStatus(StatusCode code, const Slice& msg) {
  switch (code) {
    case StatusCode::kOk: return Status::OK();
    case StatusCode::kNotFound: return Status::NotFound(msg);
    case StatusCode::kCorruption: return Status::Corruption(msg);
    case StatusCode::kNotSupported: return Status::NotSupported(msg);
    case StatusCode::kInvalidArgument: return Status::InvalidArgument(msg);
    case StatusCode::kIOError: return Status::IOError(msg);
    case StatusCode::kBusy: return Status::Busy(msg);
  }
  return Status::Corruption("unknown wire status code");
}

// --- frame assembly -------------------------------------------------------

void BuildFrame(uint64_t request_id, Opcode opcode, const Slice& payload,
                std::string* dst) {
  std::string body;
  body.reserve(kMinBodySize + payload.size());
  PutFixed64(&body, request_id);
  body.push_back(static_cast<char>(opcode));
  body.append(payload.data(), payload.size());

  PutFixed32(dst, static_cast<uint32_t>(4 + body.size()));
  PutFixed32(dst, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  dst->append(body);
}

FrameResult DecodeFrame(const char* buf, size_t size, Slice* body,
                        size_t* consumed) {
  if (size < kFrameHeaderSize) return FrameResult::kNeedMore;
  const uint32_t len = DecodeFixed32(buf);
  if (len > kMaxFrameSize || len < 4 + kMinBodySize) {
    // A nonsense length also lands here: there is no way to resync, treat
    // as oversized/underflow and let the caller drop the connection.
    return FrameResult::kTooLarge;
  }
  if (size < 4 + static_cast<size_t>(len)) return FrameResult::kNeedMore;
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(buf + 4));
  const char* body_ptr = buf + kFrameHeaderSize;
  const size_t body_len = len - 4;
  if (crc32c::Value(body_ptr, body_len) != expected) {
    return FrameResult::kBadCrc;
  }
  *body = Slice(body_ptr, body_len);
  *consumed = 4 + static_cast<size_t>(len);
  return FrameResult::kOk;
}

bool ParseBody(const Slice& body, uint64_t* request_id, Opcode* opcode,
               Slice* payload) {
  if (body.size() < kMinBodySize) return false;
  *request_id = DecodeFixed64(body.data());
  const uint8_t op = static_cast<uint8_t>(body[8]);
  if (!KnownOpcode(op)) return false;
  *opcode = static_cast<Opcode>(op);
  *payload = Slice(body.data() + kMinBodySize, body.size() - kMinBodySize);
  return true;
}

// --- request payloads -----------------------------------------------------

void EncodePut(const Slice& key, const Slice& value, std::string* dst) {
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodePut(Slice payload, Slice* key, Slice* value) {
  return GetLengthPrefixedSlice(&payload, key) &&
         GetLengthPrefixedSlice(&payload, value) && payload.empty();
}

void EncodeKey(const Slice& key, std::string* dst) {
  PutLengthPrefixedSlice(dst, key);
}

bool DecodeKey(Slice payload, Slice* key) {
  return GetLengthPrefixedSlice(&payload, key) && payload.empty();
}

void EncodeScan(const ScanRequest& req, std::string* dst) {
  PutLengthPrefixedSlice(dst, req.start_key);
  PutLengthPrefixedSlice(dst, req.end_key);
  PutVarint32(dst, req.limit);
}

bool DecodeScan(Slice payload, ScanRequest* req) {
  Slice start, end;
  uint32_t limit;
  if (!GetLengthPrefixedSlice(&payload, &start) ||
      !GetLengthPrefixedSlice(&payload, &end) ||
      !GetVarint32(&payload, &limit) || !payload.empty()) {
    return false;
  }
  req->start_key = start.ToString();
  req->end_key = end.ToString();
  req->limit = limit;
  return true;
}

void EncodeInfo(const Slice& property, std::string* dst) {
  PutLengthPrefixedSlice(dst, property);
}

bool DecodeInfo(Slice payload, Slice* property) {
  return GetLengthPrefixedSlice(&payload, property) && payload.empty();
}

void EncodeMultiGet(const std::vector<std::string>& keys, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(keys.size()));
  for (const std::string& key : keys) PutLengthPrefixedSlice(dst, key);
}

bool DecodeMultiGet(Slice payload, std::vector<Slice>* keys) {
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  // One varstring needs at least its length byte; a count the remaining
  // bytes cannot possibly satisfy is rejected before reserving anything.
  if (static_cast<size_t>(n) > payload.size()) return false;
  keys->clear();
  keys->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice key;
    if (!GetLengthPrefixedSlice(&payload, &key)) return false;
    keys->push_back(key);
  }
  return payload.empty();
}

// --- response payloads ----------------------------------------------------

void EncodeStatus(const Status& s, std::string* dst) {
  dst->push_back(static_cast<char>(CodeOf(s)));
  std::string msg = s.message();
  PutLengthPrefixedSlice(dst, msg);
}

bool DecodeStatus(Slice* payload, Status* s) {
  if (payload->empty()) return false;
  const uint8_t code = static_cast<uint8_t>((*payload)[0]);
  if (code > static_cast<uint8_t>(StatusCode::kBusy)) return false;
  payload->remove_prefix(1);
  Slice msg;
  if (!GetLengthPrefixedSlice(payload, &msg)) return false;
  *s = MakeStatus(static_cast<StatusCode>(code), msg);
  return true;
}

void EncodeScanResponse(const ScanResponse& resp, std::string* dst) {
  dst->push_back(resp.truncated ? 1 : 0);
  PutVarint32(dst, static_cast<uint32_t>(resp.entries.size()));
  for (const auto& [key, value] : resp.entries) {
    PutLengthPrefixedSlice(dst, key);
    PutLengthPrefixedSlice(dst, value);
  }
}

bool DecodeScanResponse(Slice payload, ScanResponse* resp) {
  if (payload.empty()) return false;
  resp->truncated = payload[0] != 0;
  payload.remove_prefix(1);
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  resp->entries.clear();
  resp->entries.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice key, value;
    if (!GetLengthPrefixedSlice(&payload, &key) ||
        !GetLengthPrefixedSlice(&payload, &value)) {
      return false;
    }
    resp->entries.emplace_back(key.ToString(), value.ToString());
  }
  return payload.empty();
}

void EncodeMultiGetResponse(const std::vector<MultiGetEntry>& entries,
                            std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(entries.size()));
  for (const MultiGetEntry& e : entries) {
    dst->push_back(static_cast<char>(e.code));
    if (e.code == StatusCode::kOk) PutLengthPrefixedSlice(dst, e.value);
  }
}

bool DecodeMultiGetResponse(Slice payload,
                            std::vector<MultiGetEntry>* entries) {
  uint32_t n;
  if (!GetVarint32(&payload, &n)) return false;
  if (static_cast<size_t>(n) > payload.size()) return false;
  entries->clear();
  entries->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    if (payload.empty()) return false;
    const uint8_t code = static_cast<uint8_t>(payload[0]);
    if (code > static_cast<uint8_t>(StatusCode::kBusy)) return false;
    payload.remove_prefix(1);
    MultiGetEntry e;
    e.code = static_cast<StatusCode>(code);
    if (e.code == StatusCode::kOk) {
      Slice value;
      if (!GetLengthPrefixedSlice(&payload, &value)) return false;
      e.value.assign(value.data(), value.size());
    }
    entries->push_back(std::move(e));
  }
  return payload.empty();
}

// --- DbStats serialization ------------------------------------------------
// Each field is (tag varint32, length varint32, value bytes); decoders skip
// unknown tags so fields can be added compatibly.  Which fields, their tags,
// order, value encodings and omit-when-zero groups all come from the field
// table in core/db_stats_fields.h.

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void PutValue(std::string* dst, uint64_t v) { PutVarint64(dst, v); }
void PutValue(std::string* dst, int v) {
  PutVarint64(dst, static_cast<uint64_t>(v));
}
void PutValue(std::string* dst, double v) { PutFixed64(dst, DoubleBits(v)); }
template <typename T>
void PutValue(std::string* dst, const std::vector<T>& v) {
  for (const T& x : v) PutValue(dst, x);
}

bool GetValue(Slice* in, uint64_t* v) { return GetVarint64(in, v); }
bool GetValue(Slice* in, int* v) {
  uint64_t u = 0;
  if (!GetVarint64(in, &u)) return false;
  *v = static_cast<int>(u);
  return true;
}
bool GetValue(Slice* in, double* v) {
  if (in->size() < 8) return false;
  *v = BitsDouble(DecodeFixed64(in->data()));
  in->remove_prefix(8);
  return true;
}
// A vector takes elements until its field is used up.
template <typename T>
bool GetValue(Slice* in, std::vector<T>* v) {
  while (!in->empty()) {
    T x{};
    if (!GetValue(in, &x)) return false;
    v->push_back(x);
  }
  return true;
}

}  // namespace

void EncodeDbStats(const DbStats& stats, std::string* dst) {
  std::string value;
  ForEachEmittedDbStatsField(
      [&](const DbStatsField& f, const auto& v) {
        value.clear();
        PutValue(&value, v);
        PutVarint32(dst, f.tag);
        PutVarint32(dst, static_cast<uint32_t>(value.size()));
        dst->append(value);
      },
      stats);
}

bool DecodeDbStats(Slice payload, DbStats* stats) {
  *stats = DbStats();
  while (!payload.empty()) {
    uint32_t tag = 0, len = 0;
    if (!GetVarint32(&payload, &tag) || !GetVarint32(&payload, &len) ||
        payload.size() < len) {
      return false;
    }
    Slice field(payload.data(), len);
    payload.remove_prefix(len);
    // A known field must hold exactly its value: a varint followed by stray
    // bytes is corrupt, not a value.
    bool ok = true;
    ForEachDbStatsField(
        [&](const DbStatsField& f, auto& v) {
          if (f.tag == tag) ok = GetValue(&field, &v) && field.empty();
        },
        *stats);
    if (!ok) return false;
  }
  return true;
}

}  // namespace iamdb::wire
