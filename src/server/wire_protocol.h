// Length-prefixed binary wire protocol spoken between iamdb_server and its
// clients (see docs/PROTOCOL.md for the normative spec).
//
// Frame layout (all integers little-endian, via util/coding.h):
//
//   len   (fixed32)  byte count of everything after this field (crc + body)
//   crc   (fixed32)  masked CRC32C of the body (util/crc32c.h masking)
//   body:
//     request_id (fixed64)  client-chosen correlation id, echoed verbatim
//     opcode     (1 byte)   Opcode below
//     payload    (...)      opcode-specific, varint/length-prefixed
//
// Requests and responses share the frame; a response echoes the request's
// id and opcode and prefixes its payload with a status (code + message).
// Responses to pipelined requests may arrive out of order — correlate by
// request_id.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/db.h"
#include "util/slice.h"
#include "util/status.h"

namespace iamdb::wire {

// Frame header: len (fixed32) + crc (fixed32).
constexpr size_t kFrameHeaderSize = 8;
// Minimum body: request_id (8) + opcode (1).
constexpr size_t kMinBodySize = 9;
// Hard cap on `len`; larger frames are rejected without allocation so a
// corrupt or hostile length prefix cannot trigger a huge read.
constexpr uint32_t kMaxFrameSize = 32u << 20;

enum class Opcode : uint8_t {
  kPing = 1,
  kPut = 2,
  kGet = 3,
  kDelete = 4,
  kWrite = 5,   // WriteBatch (atomic multi-op)
  kScan = 6,      // bounded forward range scan
  kInfo = 7,      // DbStats snapshot or GetProperty passthrough
  kMultiGet = 8,  // batched point reads (one frame, per-key statuses)
  kError = 255    // server-generated: unparseable request
};

// Status codes on the wire; mirrors util/status.h Status::Code.
enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCorruption = 2,
  kNotSupported = 3,
  kInvalidArgument = 4,
  kIOError = 5,
  kBusy = 6,
};

StatusCode CodeOf(const Status& s);
Status MakeStatus(StatusCode code, const Slice& msg);

// One entry of a SCAN response.
using KeyValue = std::pair<std::string, std::string>;

struct ScanRequest {
  std::string start_key;  // inclusive; empty = first key
  std::string end_key;    // exclusive; empty = unbounded
  uint32_t limit = 0;     // max entries; 0 = server default
};

struct ScanResponse {
  std::vector<KeyValue> entries;
  bool truncated = false;  // hit limit with more data remaining
};

// One MGET response entry: per-key status code plus the value when found.
struct MultiGetEntry {
  StatusCode code = StatusCode::kNotFound;
  std::string value;  // meaningful only when code == kOk
};

// --- frame assembly -------------------------------------------------------

// Appends a complete frame (header + body) to *dst.  `payload` is the
// opcode-specific bytes after the opcode byte.
void BuildFrame(uint64_t request_id, Opcode opcode, const Slice& payload,
                std::string* dst);

// Result of scanning a receive buffer for one frame.
enum class FrameResult {
  kOk,         // *body holds the verified body; *consumed bytes were used
  kNeedMore,   // buffer holds an incomplete frame
  kBadCrc,     // length was sane but checksum mismatched
  kTooLarge,   // length prefix exceeds kMaxFrameSize
};

// Examines buf[0, size); on kOk sets *consumed to the full frame size and
// *body to the body bytes (pointing into buf — valid until buf mutates).
FrameResult DecodeFrame(const char* buf, size_t size, Slice* body,
                        size_t* consumed);

// Splits a verified body into its id/opcode/payload. False if too short or
// the opcode byte is not a known Opcode.
bool ParseBody(const Slice& body, uint64_t* request_id, Opcode* opcode,
               Slice* payload);

// --- request payloads -----------------------------------------------------

void EncodePut(const Slice& key, const Slice& value, std::string* dst);
bool DecodePut(Slice payload, Slice* key, Slice* value);

void EncodeKey(const Slice& key, std::string* dst);  // GET / DELETE
bool DecodeKey(Slice payload, Slice* key);

void EncodeScan(const ScanRequest& req, std::string* dst);
bool DecodeScan(Slice payload, ScanRequest* req);

// INFO: empty property = serialized DbStats; otherwise GetProperty(prop).
void EncodeInfo(const Slice& property, std::string* dst);
bool DecodeInfo(Slice payload, Slice* property);

// MGET request: varint32 count + count varstring keys.
void EncodeMultiGet(const std::vector<std::string>& keys, std::string* dst);
bool DecodeMultiGet(Slice payload, std::vector<Slice>* keys);

// --- response payloads ----------------------------------------------------
// Every response payload begins with: code (1 byte) + varstring message.

void EncodeStatus(const Status& s, std::string* dst);
bool DecodeStatus(Slice* payload, Status* s);  // advances past the status

void EncodeScanResponse(const ScanResponse& resp, std::string* dst);
bool DecodeScanResponse(Slice payload, ScanResponse* resp);

// MGET response (after the overall status): varint32 count + count entries,
// each a status-code byte followed by a varstring value iff the code is OK.
void EncodeMultiGetResponse(const std::vector<MultiGetEntry>& entries,
                            std::string* dst);
bool DecodeMultiGetResponse(Slice payload,
                            std::vector<MultiGetEntry>* entries);

// --- DbStats serialization (INFO opcode) ----------------------------------
// Tag-prefixed so fields can be added without breaking old clients; unknown
// tags are skipped by length.  The tags, their order and encodings are the
// rows of core/db_stats_fields.h; kMaxDbStatsTag is the highest of them.
constexpr uint32_t kMaxDbStatsTag = std::size(kDbStatsTags);
void EncodeDbStats(const DbStats& stats, std::string* dst);
bool DecodeDbStats(Slice payload, DbStats* stats);

}  // namespace iamdb::wire
