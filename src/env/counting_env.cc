#include "env/counting_env.h"

namespace iamdb {

namespace {

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> target,
                         IoSink* sink)
      : target_(std::move(target)), sink_(sink) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = target_->Read(n, result, scratch);
    if (s.ok() && !result->empty()) {
      sink_->RecordRead(result->size(), 1);
    }
    return s;
  }

  Status Skip(uint64_t n) override { return target_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> target_;
  IoSink* sink_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> target,
                           IoSink* sink)
      : target_(std::move(target)), sink_(sink) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = target_->Read(offset, n, result, scratch);
    if (s.ok()) {
      sink_->RecordRead(result->size(), 1);
    }
    return s;
  }

  // Charges one seek per contiguous run of segments that succeeded, so
  // coalesced batch reads show up as fewer read_ops than the same blocks
  // read one by one; runs of 2+ segments are also reported as coalesced.
  Status ReadV(ReadRequest* reqs, size_t count) const override {
    Status s = target_->ReadV(reqs, count);
    uint64_t bytes = 0;
    uint64_t seeks = 0;
    uint64_t coalesced_runs = 0;
    uint64_t coalesced_segments = 0;
    size_t run = 0;  // segments in the current run
    for (size_t i = 0; i <= count; ++i) {
      const bool ok = i < count && reqs[i].status.ok();
      if (ok && run > 0 &&
          reqs[i].offset == reqs[i - 1].offset + reqs[i - 1].n) {
        ++run;
      } else {
        if (run >= 2) {
          ++coalesced_runs;
          coalesced_segments += run;
        }
        run = ok ? 1 : 0;
        if (ok) ++seeks;
      }
      if (ok) bytes += reqs[i].result.size();
    }
    if (seeks > 0) sink_->RecordRead(bytes, seeks);
    if (coalesced_runs > 0) {
      sink_->RecordCoalesced(coalesced_runs, coalesced_segments);
    }
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> target_;
  IoSink* sink_;
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> target, IoSink* sink)
      : target_(std::move(target)), sink_(sink) {}

  Status Append(const Slice& data) override {
    Status s = target_->Append(data);
    if (s.ok()) {
      sink_->RecordWrite(data.size());
    }
    return s;
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override {
    sink_->RecordSync();
    return target_->Sync();
  }

 private:
  std::unique_ptr<WritableFile> target_;
  IoSink* sink_;
};

}  // namespace

Status CountingEnv::NewSequentialFile(const std::string& fname,
                                      std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> inner;
  Status s = target()->NewSequentialFile(fname, &inner);
  if (s.ok()) {
    *result =
        std::make_unique<CountingSequentialFile>(std::move(inner), sink_);
  }
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> inner;
  Status s = target()->NewRandomAccessFile(fname, &inner);
  if (s.ok()) {
    *result =
        std::make_unique<CountingRandomAccessFile>(std::move(inner), sink_);
  }
  return s;
}

Status CountingEnv::NewWritableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> inner;
  Status s = target()->NewWritableFile(fname, &inner);
  if (s.ok()) {
    *result = std::make_unique<CountingWritableFile>(std::move(inner), sink_);
  }
  return s;
}

Status CountingEnv::NewAppendableFile(const std::string& fname,
                                      std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> inner;
  Status s = target()->NewAppendableFile(fname, &inner);
  if (s.ok()) {
    *result = std::make_unique<CountingWritableFile>(std::move(inner), sink_);
  }
  return s;
}

}  // namespace iamdb
