// Status: result type for every fallible operation.  Success is represented
// without allocation; errors carry a code and a message.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "util/slice.h"

namespace iamdb {

class Status {
 public:
  Status() = default;  // OK

  static Status OK() { return Status(); }
  static Status NotFound(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kNotFound, msg, msg2);
  }
  static Status Corruption(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kCorruption, msg, msg2);
  }
  static Status NotSupported(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kNotSupported, msg, msg2);
  }
  static Status InvalidArgument(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kInvalidArgument, msg, msg2);
  }
  static Status IOError(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kIOError, msg, msg2);
  }
  static Status Busy(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kBusy, msg, msg2);
  }
  // A read under ReadOptions::cache_only that needed the device (a block
  // missing from both cache tiers, or a table reader not yet open).  Not
  // an error in the data: the same read without the flag can succeed.
  static Status Incomplete(const Slice& msg, const Slice& msg2 = Slice()) {
    return Status(kIncomplete, msg, msg2);
  }

  bool ok() const { return rep_ == nullptr; }
  bool IsNotFound() const { return code() == kNotFound; }
  bool IsCorruption() const { return code() == kCorruption; }
  bool IsIOError() const { return code() == kIOError; }
  bool IsNotSupported() const { return code() == kNotSupported; }
  bool IsInvalidArgument() const { return code() == kInvalidArgument; }
  bool IsBusy() const { return code() == kBusy; }
  bool IsIncomplete() const { return code() == kIncomplete; }

  std::string ToString() const;

  // The bare message, without the code prefix ToString() adds (empty for
  // OK).  Used where the code travels separately, e.g. the wire protocol.
  std::string message() const { return rep_ == nullptr ? "" : rep_->msg; }

 private:
  enum Code {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kNotSupported = 3,
    kInvalidArgument = 4,
    kIOError = 5,
    kBusy = 6,
    kIncomplete = 7,
  };

  struct Rep {
    Code code;
    std::string msg;
  };

  Status(Code code, const Slice& msg, const Slice& msg2) {
    std::string m = msg.ToString();
    if (!msg2.empty()) {
      m.append(": ");
      m.append(msg2.data(), msg2.size());
    }
    rep_ = std::make_shared<const Rep>(Rep{code, std::move(m)});
  }

  Code code() const { return rep_ == nullptr ? kOk : rep_->code; }

  // shared_ptr keeps Status copyable and cheap to pass; errors are rare.
  std::shared_ptr<const Rep> rep_;
};

inline std::string Status::ToString() const {
  if (rep_ == nullptr) return "OK";
  const char* type;
  switch (rep_->code) {
    case kOk: type = "OK"; break;
    case kNotFound: type = "NotFound: "; break;
    case kCorruption: type = "Corruption: "; break;
    case kNotSupported: type = "Not implemented: "; break;
    case kInvalidArgument: type = "Invalid argument: "; break;
    case kIOError: type = "IO error: "; break;
    case kBusy: type = "Busy: "; break;
    case kIncomplete: type = "Incomplete: "; break;
    default: type = "Unknown: "; break;
  }
  return std::string(type) + rep_->msg;
}

}  // namespace iamdb
