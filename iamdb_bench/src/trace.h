// Outside-in tracing for the benchmark's traced rounds.
//
// Nothing here changes the engine: the benchmark wraps the calls it makes
// into each layer's public interface.
//   * TimedDB decorates DB.  Every call (and every Seek/Next of the
//     iterators it returns) is a `core` span; it opens an OpIoScope for the
//     call's device reads and write-stall time.
//   * TimingEnv decorates the Env under DBImpl.  Every Read/ReadV/Append/
//     Sync is an `env` span, classified by file (WAL, table, manifest) and
//     tagged foreground when it runs inside a DB call on the same thread,
//     background otherwise (flush and compaction threads).
//   * RequestScope marks one workload request on the calling thread, and
//     WireScope the client round trip inside a `serve` request.
// Every span is counted exactly in per-thread counters.  Full spans are kept
// for one request in 64 (and one background I/O in 64), capped, and written
// at exit as a Chrome trace-event file that Perfetto opens.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/db.h"
#include "env/env.h"

namespace iamdb::bench {

enum FileClass { kWalFile, kTableFile, kManifestFile, kOtherFile };
constexpr int kNumFileClasses = 4;
enum EnvOp { kEnvRead, kEnvWrite, kEnvSync };
constexpr int kNumEnvOps = 3;
enum Side { kForeground, kBackground };
constexpr int kNumSides = 2;

// Exact totals of every traced thread's counters; deltas give one window.
struct LayerTotals {
  enum Counter {
    kRequests,
    kRequestNs,
    kWireNs,       // client round trips inside requests (serve)
    kCalls,
    kCallNs,
    kStallUs,      // write stalls inside DB calls (OpIoScope)
    kFgSeeks,      // device reads inside DB calls (OpIoScope)
    kFgReadBytes,
    kEnvBase,      // then [side][file][op] x {ns, bytes}, then files created
  };
  static constexpr int kNumCounters =
      kEnvBase + kNumSides * kNumFileClasses * kNumEnvOps * 2 +
      kNumFileClasses;
  std::array<uint64_t, kNumCounters> v{};

  static int EnvIndex(int side, int file, int op, int field) {
    return kEnvBase + ((side * kNumFileClasses + file) * kNumEnvOps + op) * 2 +
           field;
  }
  static int CreatedIndex(int file) {
    return kNumCounters - kNumFileClasses + file;
  }
  uint64_t env_ns(Side s, FileClass f, EnvOp op) const {
    return v[EnvIndex(s, f, op, 0)];
  }
  uint64_t env_bytes(Side s, FileClass f, EnvOp op) const {
    return v[EnvIndex(s, f, op, 1)];
  }
  // Summed over file classes.
  uint64_t env_ns(Side s, EnvOp op) const;
  uint64_t env_ns(Side s) const;
  uint64_t created(FileClass f) const { return v[CreatedIndex(f)]; }

  LayerTotals operator-(const LayerTotals& rhs) const;
};

// Sum of every traced thread's counters so far.
LayerTotals TraceTotals();

// Writes the kept spans as Chrome trace-event JSON and returns how many
// it wrote (-1 on an I/O error).  Call only after every traced thread has
// been joined.
int64_t WriteChromeTrace(const std::string& path);

// One workload request on the calling thread: a `request` span whose
// duration is what the workload's caller waited.
class RequestScope {
 public:
  explicit RequestScope(const char* name);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  const char* name_;
  uint64_t saved_parent_;
  uint64_t span_id_;
  uint64_t start_ns_;
};

// One client round trip inside the open request: a `server` span covering
// the wire path (client encode and send, loopback, reactor decode, worker
// queue, the DB call, response encode and send, client decode).
class WireScope {
 public:
  WireScope();
  ~WireScope();
  WireScope(const WireScope&) = delete;
  WireScope& operator=(const WireScope&) = delete;

 private:
  uint64_t saved_parent_;
  uint64_t span_id_;
  uint64_t start_ns_;
};

class TimingEnv final : public EnvWrapper {
 public:
  explicit TimingEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override;
};

// Forwards every call to `target` (not owned), timing each one.
class TimedDB final : public DB {
 public:
  explicit TimedDB(DB* target) : target_(target) {}

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  void MultiGet(const ReadOptions& options, size_t count, const Slice* keys,
                std::string* values, Status* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status WaitForQuiescence() override { return target_->WaitForQuiescence(); }
  Status FlushAll() override { return target_->FlushAll(); }
  DbStats GetStats() override { return target_->GetStats(); }
  const AmpStats& amp_stats() const override { return target_->amp_stats(); }
  bool GetProperty(const Slice& property, std::string* value) override {
    return target_->GetProperty(property, value);
  }
  Status CheckInvariants(bool quiescent) override {
    return target_->CheckInvariants(quiescent);
  }

 private:
  DB* const target_;
};

}  // namespace iamdb::bench
