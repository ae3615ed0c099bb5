// Point-lookup plumbing shared by DBImpl, the version walk and the table
// layer.  Every point read is a batch (Get is a batch of one): DBImpl builds
// one MultiGetRequest per key, probes mem/imm, then hands the still-pending
// requests — sorted by internal key — to VersionMultiGet.  Each layer
// receives a contiguous run of that array, resolves what it can and leaves
// the rest pending for the next-older data; a request whose state leaves
// kPending (or whose status turns non-OK) is final and must be skipped by
// everything below.
#pragma once

#include <algorithm>
#include <string>

#include "core/dbformat.h"
#include "util/status.h"

namespace iamdb {

struct MultiGetRequest {
  enum class State { kPending, kFound, kDeleted, kCorrupt };

  // Inputs, set once by DBImpl.  The LookupKey carries the batch's snapshot
  // sequence, so internal-key order over a batch equals user-key order.
  const LookupKey* lkey = nullptr;
  std::string* value = nullptr;

  // Resolution.
  State state = State::kPending;
  Status status;

  bool resolved() const { return state != State::kPending || !status.ok(); }
};

inline bool AllResolved(MultiGetRequest* const* reqs, size_t count) {
  return std::all_of(reqs, reqs + count,
                     [](const MultiGetRequest* r) { return r->resolved(); });
}

}  // namespace iamdb
