#include "speed.h"

#include <time.h>

#include <algorithm>
#include <cstdint>

namespace iamdb::bench {

namespace {

constexpr int kProbeSteps = 60000;
constexpr auto kProbeInterval = std::chrono::milliseconds(50);

double CpuSeconds(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

// The probe's fixed work: a chain of 64-bit mixes with a branch on each
// result.  Aligned so that every build of the benchmark places the loop
// the same way relative to cache lines, whatever the engine code around
// it.
__attribute__((noinline, aligned(64))) uint64_t ProbeKernel(uint64_t x) {
  uint64_t acc = 0;
  for (int i = 0; i < kProbeSteps; i++) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    if (x & 1) {
      acc += x >> 3;
    } else {
      acc ^= x << 1;
    }
  }
  return acc;
}

}  // namespace

double ProbeSeconds() {
  uint64_t seed = 1;
  asm volatile("" : "+r"(seed));  // not a constant the compiler can fold
  const double start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  uint64_t acc = ProbeKernel(seed);
  asm volatile("" : : "r"(acc));  // the result is used
  return CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - start;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

SpeedClock::SpeedClock() {
  const Clock::time_point start = Clock::now();
  last_probe_s_ = ProbeSeconds();
  interval_start_ = Clock::now();
  probe_wall_s_ =
      std::chrono::duration<double>(interval_start_ - start).count();
  probe_cpu_s_ = last_probe_s_;
  probes_.push_back(last_probe_s_);
}

void SpeedClock::Tick(std::vector<float>* latencies) {
  if (Clock::now() - interval_start_ >= kProbeInterval) Probe(latencies);
}

void SpeedClock::Finish(std::vector<float>* latencies) { Probe(latencies); }

void SpeedClock::Probe(std::vector<float>* latencies) {
  const Clock::time_point start = Clock::now();
  const double probe = ProbeSeconds();
  const Clock::time_point end = Clock::now();

  const double factor = kReferenceProbeSeconds / ((last_probe_s_ + probe) / 2);
  const double interval =
      std::chrono::duration<double>(start - interval_start_).count();
  wall_s_ += interval;
  scaled_s_ += interval * factor;
  if (latencies != nullptr) {
    for (size_t i = pending_; i < latencies->size(); i++) {
      (*latencies)[i] *= factor;
    }
    pending_ = latencies->size();
  }
  probe_wall_s_ += std::chrono::duration<double>(end - start).count();
  probe_cpu_s_ += probe;
  probes_.push_back(probe);
  last_probe_s_ = probe;
  interval_start_ = end;
}

double SpeedClock::median_probe_s() const {
  std::vector<double> v = probes_;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace iamdb::bench
