// One-key point lookup on an MSTableReader, as a one-request MultiGet (the
// table layer's only lookup).  Shared by the table tests and the component
// microbenchmark.
#pragma once

#include <string>

#include "core/dbformat.h"
#include "core/multiget.h"
#include "table/mstable.h"

namespace iamdb {

// Looks up the newest entry for `user_key` with sequence <= `snapshot`.
// *state ends kFound (value in *value), kDeleted, kCorrupt, or kPending when
// no sequence holds the key.  Returns the request's status.
inline Status TableGet(const MSTableReader& reader, const Slice& user_key,
                       SequenceNumber snapshot, std::string* value,
                       MultiGetRequest::State* state,
                       const ReadOptions& options = ReadOptions()) {
  LookupKey lkey(user_key, snapshot);
  MultiGetRequest req;
  req.lkey = &lkey;
  req.value = value;
  MultiGetRequest* reqs = &req;
  reader.MultiGet(options, &reqs, 1);
  *state = req.state;
  return req.status;
}

}  // namespace iamdb
