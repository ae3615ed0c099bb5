// CountingEnv: wraps any Env and turns every file call into a device event
// for an IoSink: a read's bytes and seeks, an Append's bytes, a sync.  This
// is the one place that decides what a seek is.  An IoStats sink measures
// write amplification, read amplification and modeled device time (plus
// the calling thread's OpIoContext) without touching engine code; a
// ThrottledEnv sink charges the same events to a wall-clock device queue.
#pragma once

#include "env/env.h"
#include "stats/io_stats.h"

namespace iamdb {

class CountingEnv : public EnvWrapper {
 public:
  CountingEnv(Env* target, IoSink* sink) : EnvWrapper(target), sink_(sink) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override;

 private:
  IoSink* sink_;
};

}  // namespace iamdb
