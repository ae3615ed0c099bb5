#include "env/throttled_env.h"

#include <algorithm>

namespace iamdb {

double ThrottledEnv::charged_micros() const {
  std::lock_guard<std::mutex> l(queue_mu_);
  return charged_micros_;
}

void ThrottledEnv::Charge(double modeled_micros) {
  Env* wall = Env::Default();
  const double now = static_cast<double>(wall->NowMicros());
  double done;
  {
    std::lock_guard<std::mutex> l(queue_mu_);
    charged_micros_ += modeled_micros;
    done = std::max(now, device_free_at_) + modeled_micros * scale_;
    device_free_at_ = done;
  }
  // Sleep until this request's scaled completion; skip sub-granularity
  // waits (they still advanced the queue, so later requests pay them).
  if (done > now + 100) {
    wall->SleepForMicroseconds(static_cast<int>(done - now));
  }
}

}  // namespace iamdb
