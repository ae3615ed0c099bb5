// Exact I/O accounting.  Two granularities:
//  * IoStats — global, per-DB byte/seek counters fed by CountingEnv.
//  * OpIoContext — thread-local per-operation counters so benchmarks can
//    model the latency of an individual Get/Scan/Put from its actual I/O.
#pragma once

#include <atomic>
#include <cstdint>

namespace iamdb {

struct IoStatsSnapshot {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t write_ops = 0;   // device writes: Appends reaching CountingEnv
                            // (a pushed 64 KB buffer or one WAL record)
  uint64_t read_ops = 0;    // distinct positional reads ("seeks")
  uint64_t fsyncs = 0;

  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const {
    IoStatsSnapshot d;
    d.bytes_written = bytes_written - rhs.bytes_written;
    d.bytes_read = bytes_read - rhs.bytes_read;
    d.write_ops = write_ops - rhs.write_ops;
    d.read_ops = read_ops - rhs.read_ops;
    d.fsyncs = fsyncs - rhs.fsyncs;
    return d;
  }
};

// Receives the device events CountingEnv classifies (env/counting_env.cc
// is the only code that turns a file call into one).  A read is `seeks`
// distinct device positions covering `bytes`; a write is one Append.
class IoSink {
 public:
  virtual ~IoSink() = default;
  virtual void RecordRead(uint64_t bytes, uint64_t seeks) = 0;
  virtual void RecordWrite(uint64_t bytes) = 0;
  virtual void RecordSync() = 0;
  // Of one vectored read's runs, `runs` covered 2+ adjacent segments,
  // `segments` of them in all.  Already priced by that read's RecordRead.
  virtual void RecordCoalesced(uint64_t /*runs*/, uint64_t /*segments*/) {}
};

// The per-DB counters.  Reads and writes also feed the calling thread's
// OpIoScope, if any, so one device read must reach exactly one IoStats:
// a ThrottledEnv under the DB's CountingEnv is a sink of its own.
class IoStats final : public IoSink {
 public:
  void RecordRead(uint64_t bytes, uint64_t seeks) override;
  void RecordWrite(uint64_t bytes) override;
  void RecordSync() override {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCoalesced(uint64_t runs, uint64_t segments) override {
    coalesced_reads_.fetch_add(runs, std::memory_order_relaxed);
    coalesced_blocks_.fetch_add(segments, std::memory_order_relaxed);
  }

  IoStatsSnapshot Snapshot() const {
    IoStatsSnapshot s;
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.write_ops = write_ops_.load(std::memory_order_relaxed);
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    return s;
  }
  // Vectored-read runs of 2+ adjacent segments, and the segments in them.
  // Only a MultiGet batch issues multi-segment reads, so these are its
  // coalescing gauges.
  uint64_t coalesced_reads() const {
    return coalesced_reads_.load(std::memory_order_relaxed);
  }
  uint64_t coalesced_blocks() const {
    return coalesced_blocks_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> coalesced_reads_{0};
  std::atomic<uint64_t> coalesced_blocks_{0};
};

// Per-operation I/O gathered while the current thread executes one user
// operation.  Disk reads that hit the block cache never reach here, so the
// counts reflect true device traffic.
struct OpIoContext {
  uint64_t seeks = 0;        // positional reads issued
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t stall_micros = 0;  // time spent blocked on write stalls

  void Clear() { *this = OpIoContext{}; }
};

// Scoped access to the calling thread's op context.  Enabled only while a
// benchmark wraps an operation; otherwise recording is a no-op.
class OpIoScope {
 public:
  OpIoScope();
  ~OpIoScope();
  OpIoScope(const OpIoScope&) = delete;
  OpIoScope& operator=(const OpIoScope&) = delete;

  const OpIoContext& context() const;

  // Device reads and writes arrive through IoStats; stalls through this.
  static void RecordStall(uint64_t micros);

 private:
  OpIoContext* prev_;
  OpIoContext ctx_;
};

}  // namespace iamdb
