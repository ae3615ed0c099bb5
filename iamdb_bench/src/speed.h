// Scaling of measured times to a reference machine speed.
//
// The benchmark runs on shared hosts, where other tenants' load changes how
// fast the same instructions run by 20% and more, for seconds to minutes at
// a time.  Wall-clock and CPU times of the same code then spread further
// from run to run than any useful regression bound.  So every thread that
// times requests runs a fixed compute kernel, the probe, every 50 ms, and
// scales each time measured between two probes by
// kReferenceProbeSeconds / (the mean of those two probes' CPU times).  A
// scaled time reads as it would on a machine where the probe takes exactly
// kReferenceProbeSeconds.  The probe touches no memory beyond a few
// registers, so the engine's cache footprint does not change its speed, and
// it is timed in thread CPU time, so a probe preempted by another thread is
// not mistaken for a slow machine.  What scaling cannot remove is time spent
// waiting for a processor (run-queue delay), which stays in wall-clock
// times.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace iamdb::bench {

// The probe's CPU time on a quiet 4-vCPU Xeon VM.
constexpr double kReferenceProbeSeconds = 0.5e-3;

// Runs the probe once on the calling thread; returns its CPU seconds.
double ProbeSeconds();

// CPU seconds of the whole process.
double ProcessCpuSeconds();

// One thread's probes and the intervals between them.
class SpeedClock {
 public:
  // Takes the first probe.
  SpeedClock();

  // Call between requests.  Once 50 ms have passed since the last probe,
  // takes a probe and scales the latencies appended to *latencies since the
  // previous one (in place).
  void Tick(std::vector<float>* latencies = nullptr);
  // Takes a last probe and closes the interval since the previous one.
  void Finish(std::vector<float>* latencies = nullptr);

  // Time between probes so far, as measured and as scaled.
  double wall_s() const { return wall_s_; }
  double scaled_s() const { return scaled_s_; }
  // Time spent in probes, wall-clock and thread CPU.
  double probe_wall_s() const { return probe_wall_s_; }
  double probe_cpu_s() const { return probe_cpu_s_; }
  // The probe's median CPU time.
  double median_probe_s() const;

 private:
  using Clock = std::chrono::steady_clock;

  void Probe(std::vector<float>* latencies);

  Clock::time_point interval_start_;
  double last_probe_s_;
  size_t pending_ = 0;  // first latency not yet scaled
  double wall_s_ = 0, scaled_s_ = 0;
  double probe_wall_s_ = 0, probe_cpu_s_ = 0;
  std::vector<double> probes_;
};

}  // namespace iamdb::bench
