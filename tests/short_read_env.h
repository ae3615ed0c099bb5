// An Env whose random-access reads can be made to come back short, as from
// a file truncated under its reader.  Shared by the table and fault tests.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "env/env.h"

namespace iamdb {

class ShortReadEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  // The next read of more than one byte, on any file, returns one byte
  // fewer than asked.
  void ShortenNextRead() { armed_ = true; }

  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    Status s = EnvWrapper::NewRandomAccessFile(f, r);
    if (s.ok()) *r = std::make_unique<File>(std::move(*r), &armed_);
    return s;
  }

 private:
  class File final : public RandomAccessFile {
   public:
    File(std::unique_ptr<RandomAccessFile> target, std::atomic<bool>* armed)
        : target_(std::move(target)), armed_(armed) {}

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      if (n > 1 && armed_->exchange(false)) n--;
      return target_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> target_;
    std::atomic<bool>* armed_;
  };

  std::atomic<bool> armed_{false};
};

}  // namespace iamdb
