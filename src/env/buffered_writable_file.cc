#include "env/buffered_writable_file.h"

namespace iamdb {

BufferedWritableFile::BufferedWritableFile(
    std::unique_ptr<WritableFile> target)
    : target_(std::move(target)) {
  buf_.reserve(kBufferSize);
}

BufferedWritableFile::~BufferedWritableFile() {
  if (!closed_) Close();
}

Status BufferedWritableFile::Push() {
  if (!error_.ok()) return error_;
  if (buf_.empty()) return Status::OK();
  Status s = target_->Append(buf_);
  buf_.clear();
  if (!s.ok()) error_ = s;
  return s;
}

Status BufferedWritableFile::Append(const Slice& data) {
  if (!error_.ok()) return error_;
  if (buf_.size() + data.size() > kBufferSize || data.size() >= kBufferSize) {
    Status s = Push();
    if (!s.ok()) return s;
  }
  if (data.size() < kBufferSize) {
    buf_.append(data.data(), data.size());
    return Status::OK();
  }
  Status s = target_->Append(data);
  if (!s.ok()) error_ = s;
  return s;
}

Status BufferedWritableFile::Flush() {
  Status s = Push();
  if (!s.ok()) return s;
  return target_->Flush();
}

Status BufferedWritableFile::Sync() {
  Status s = Push();
  if (!s.ok()) return s;
  return target_->Sync();
}

Status BufferedWritableFile::Close() {
  closed_ = true;
  Status s = Push();
  Status c = target_->Close();
  return s.ok() ? c : s;
}

}  // namespace iamdb
