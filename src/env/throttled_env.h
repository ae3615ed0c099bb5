// ThrottledEnv: couples modeled device time to wall time.  It is a
// CountingEnv whose events go to a device queue instead of an IoStats:
// every read, Append and sync is charged the DeviceModel time that
// TotalMicros would sum for it (plus one seek per sync), scaled by
// `time_scale`, so the writer, readers and background compactions
// genuinely contend for a device that moves at a bounded rate — the
// dynamic a pure price-the-IO-afterwards model cannot express (write
// stalls, compaction debt that persists into a measurement window, the
// paper's "tuning phase").  It feeds no OpIoScope: under a DB, the DB's own
// CountingEnv above it does.
//
// time_scale = 0.01 runs a simulated HDD 100x faster than real time while
// preserving every ratio between operations.  The queue clock is
// fractional, so costs below one scaled microsecond still accumulate; a
// caller sleeps only once its request completes more than 100us ahead.
#pragma once

#include <mutex>

#include "env/counting_env.h"
#include "stats/device_model.h"

namespace iamdb {

class ThrottledEnv final : private IoSink, public CountingEnv {
 public:
  ThrottledEnv(Env* target, DeviceProfile profile, double time_scale)
      : CountingEnv(target, this),
        model_(std::move(profile)),
        scale_(time_scale) {}

  // Total modeled device-busy microseconds charged so far (unscaled).
  double charged_micros() const;

  // Charge `modeled_micros` of device time: the device is a single server,
  // so the request queues behind all previously charged I/O (from any
  // thread) and the caller sleeps until its scaled completion time.  This
  // is what makes background compaction traffic visibly steal bandwidth
  // from foreground operations.
  void Charge(double modeled_micros);

 private:
  void RecordRead(uint64_t bytes, uint64_t seeks) override {
    Charge(model_.ReadMicros(seeks, bytes));
  }
  void RecordWrite(uint64_t bytes) override {
    Charge(model_.WriteMicros(1, bytes));
  }
  // A sync is a device round trip: one dispatch.
  void RecordSync() override { Charge(model_.profile().seek_latency_us); }

  const DeviceModel model_;
  const double scale_;
  mutable std::mutex queue_mu_;
  double charged_micros_ = 0;  // guarded by queue_mu_
  double device_free_at_ = 0;  // wall micros when the device frees up
};

}  // namespace iamdb
