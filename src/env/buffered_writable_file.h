// BufferedWritableFile: a WritableFile decorator that gathers small Appends
// into one 64 KB buffer and hands the file beneath it one Append per full
// buffer, as LevelDB's kWritableFileBufferSize does.  The engine wraps the
// files it writes (the WAL, new and appended node files) at the places it
// opens them, so a 4 KB block and its trailer, or a WAL record's header and
// payload, reach the env as part of one write instead of one write each.
//
// The buffer goes out as a single Append when the next Append would
// overflow it, and on Flush, Sync and Close.  An Append of a full buffer's
// size or more first pushes what is buffered, then passes straight through.
// A failed push is sticky: it is returned by the call that triggered it and
// by every later call, so the file beneath may hold a torn tail but never a
// gap followed by newer bytes, and no later Sync acknowledges the loss.
#pragma once

#include <memory>
#include <string>

#include "env/env.h"

namespace iamdb {

class BufferedWritableFile final : public WritableFile {
 public:
  static constexpr size_t kBufferSize = 64 << 10;

  explicit BufferedWritableFile(std::unique_ptr<WritableFile> target);
  // Pushes what is still buffered (ignoring the result; call Close to
  // learn it).
  ~BufferedWritableFile() override;

  BufferedWritableFile(const BufferedWritableFile&) = delete;
  BufferedWritableFile& operator=(const BufferedWritableFile&) = delete;

  Status Append(const Slice& data) override;
  Status Close() override;
  Status Flush() override;
  Status Sync() override;

 private:
  // Hands the buffer to the target as one Append; records a failure.
  Status Push();

  std::unique_ptr<WritableFile> target_;
  std::string buf_;  // capacity kBufferSize, reserved once
  Status error_;     // first failed push; sticky
  bool closed_ = false;
};

}  // namespace iamdb
