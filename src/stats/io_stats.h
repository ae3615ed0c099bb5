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
  uint64_t write_ops = 0;   // distinct Append calls
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

class IoStats {
 public:
  void RecordWrite(uint64_t bytes) {
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordRead(uint64_t bytes) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  // A vectored read: `seeks` distinct device positions covering `bytes`
  // total.  Coalesced segments cost one seek, so ReadV accounting shows
  // fewer read_ops than the equivalent loop of Read() calls.
  void RecordReadV(uint64_t bytes, uint64_t seeks) {
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(seeks, std::memory_order_relaxed);
  }
  void RecordSync() { fsyncs_.fetch_add(1, std::memory_order_relaxed); }

  IoStatsSnapshot Snapshot() const {
    IoStatsSnapshot s;
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.write_ops = write_ops_.load(std::memory_order_relaxed);
    s.read_ops = read_ops_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> fsyncs_{0};
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

  // Static recording hooks used by CountingEnv / stall logic.
  static void RecordRead(uint64_t bytes);
  static void RecordReadV(uint64_t bytes, uint64_t seeks);
  static void RecordWrite(uint64_t bytes);
  static void RecordStall(uint64_t micros);

 private:
  OpIoContext* prev_;
  OpIoContext ctx_;
};

}  // namespace iamdb
