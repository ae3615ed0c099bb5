// The four benchmark workloads.  A run is a series of rounds; each round
// sets up a fresh database (timed as set-up), runs a fixed amount of work
// (the measured window, which ends once every flush and compaction the
// window caused has finished), then checks the final state against the
// model outside the window.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "server/server.h"
#include "stats/amp_stats.h"
#include "stats/io_stats.h"
#include "trace.h"

namespace iamdb::bench {

struct RoundParams {
  uint64_t seed = 1;   // this round's input seed
  double scale = 1.0;  // multiplies every operation and record count
  bool traced = false;
};

// Times marked "scaled" are scaled to the reference machine speed
// (speed.h); the others are as measured.
struct RoundResult {
  double setup_s = 0;   // scaled, speed probes excluded
  double window_s = 0;  // operations plus the final drain
  double drain_s = 0;
  double check_s = 0;   // checks inside the window, outside every latency
  // Speed probes inside the window: their wall-clock time per timing
  // thread, the ratio of scaled to measured time over the window, and the
  // probe's median CPU time.
  double probe_s = 0;
  double time_scale = 1;
  double median_probe_s = 0;
  double cpu_s = 0;     // process CPU time in the window, probes excluded
  double peak_rss_mb = 0;  // VmHWM over the round (filled in by main)
  uint64_t ops = 0;     // requests completed in the window
  uint64_t failed = 0;  // non-OK statuses and wrong results
  bool final_check_ok = false;
  uint64_t puts = 0;
  std::vector<float> op_us;  // latency of every request, scaled

  // Engine accounting over the window.
  uint64_t user_bytes = 0;
  std::array<uint64_t, static_cast<int>(WriteReason::kNumReasons)>
      reason_bytes{};
  std::array<uint64_t, AmpStats::kMaxLevels> level_bytes{};
  IoStatsSnapshot io;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t debt_max_bytes = 0;  // sampled every 100 ms (traced rounds)
  // Since the database was created (set-up load and window).
  uint64_t lifetime_user_bytes = 0;
  uint64_t lifetime_table_bytes = 0;  // excludes the WAL
  // State at the end of the window.
  uint64_t space_used_bytes = 0;
  uint64_t live_bytes = 0;
  uint64_t nodes = 0;
  int mixed_level = 0, mixed_k = 0;

  ServerStats server;  // window delta (serve only)
  LayerTotals layers;  // window delta (traced rounds only)
};

using RoundFn = RoundResult (*)(const RoundParams&);

struct WorkloadDef {
  const char* name;
  RoundFn run;
  // Workload sizes and cache, hashed into the run's config_hash.
  std::string config;
};

// nullptr if unknown.
const WorkloadDef* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

}  // namespace iamdb::bench
