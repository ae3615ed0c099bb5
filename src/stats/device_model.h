// Device model: converts measured I/O (seeks + bytes) into modeled time for
// a parametric storage device.  This substitutes for the paper's physical
// 200GB SSD and 1.2TB 10k-RPM HDD: amplifications are measured exactly on
// the real/in-memory filesystem, while throughput and latency *shape* come
// from applying these profiles to the measured I/O stream.
//
// The byte counts fed in are *physical* (post-compression) bytes from
// CountingEnv, so enabling a block codec (table/compressor.h) automatically
// shows up here as fewer modeled transfer micros — no codec-specific terms
// are needed in the profiles.
#pragma once

#include <cstdint>
#include <string>

#include "stats/io_stats.h"

namespace iamdb {

struct DeviceProfile {
  std::string name;
  double seek_latency_us;      // cost of one positional I/O dispatch
  double read_bw_mbps;         // sequential read bandwidth
  double write_bw_mbps;        // sequential write bandwidth

  // Paper hardware analogues (Sec 6.1).
  static DeviceProfile SSD() { return {"SSD", 100.0, 500.0, 400.0}; }
  static DeviceProfile HDD() { return {"HDD", 8000.0, 150.0, 150.0}; }
};

class DeviceModel {
 public:
  explicit DeviceModel(DeviceProfile profile) : profile_(std::move(profile)) {}

  const DeviceProfile& profile() const { return profile_; }

  // Modeled microseconds for an I/O batch.  At X MB/s a device moves
  // exactly X bytes per microsecond, so bytes / bw_mbps is microseconds.
  double ReadMicros(uint64_t seeks, uint64_t bytes) const {
    return seeks * profile_.seek_latency_us + bytes / profile_.read_bw_mbps;
  }
  double WriteMicros(uint64_t ops, uint64_t bytes) const {
    // Writes are buffered/sequential: charge dispatch cost per sync-sized
    // batch rather than per device write (one seek per 64 writes
    // approximates filesystem write-back clustering).  A device write is
    // one Append that reaches CountingEnv: for node files, one pushed
    // 64 KB buffer (env/buffered_writable_file.h); for the WAL, one
    // record; the manifest still appends each record's header and payload
    // apart.
    return (ops / 64.0) * profile_.seek_latency_us +
           bytes / profile_.write_bw_mbps;
  }

  // Total modeled busy-time for a snapshot delta.
  double TotalMicros(const IoStatsSnapshot& delta) const {
    return ReadMicros(delta.read_ops, delta.bytes_read) +
           WriteMicros(delta.write_ops, delta.bytes_written);
  }

  // Modeled device time of a single user operation from its OpIoContext
  // (its write stalls are wall time and stay separate).
  double OpMicros(const OpIoContext& op) const {
    return op.seeks * profile_.seek_latency_us +
           op.bytes_read / profile_.read_bw_mbps +
           op.bytes_written / profile_.write_bw_mbps;
  }

 private:
  DeviceProfile profile_;
};

}  // namespace iamdb
