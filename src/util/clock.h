// Time source for controllers that act once per interval (the memory
// arbiter).  Tests inject a manual clock whose time moves only when the
// test advances it, so interval logic is checked without sleeping.
#pragma once

#include <chrono>
#include <cstdint>

namespace iamdb {

class Clock {
 public:
  virtual ~Clock() = default;

  virtual uint64_t NowMicros() = 0;

  // Process-wide steady_clock-backed default.
  static Clock* Default();
};

inline Clock* Clock::Default() {
  struct SteadyClock : Clock {
    uint64_t NowMicros() override {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
  };
  static SteadyClock clock;
  return &clock;
}

}  // namespace iamdb
