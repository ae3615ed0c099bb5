// Stability: fixed-duration write-heavy ingest bucketed into 1-second
// windows, for the leveled baseline and both AMT policies.
//
// Each cell first loads the whole key space and waits for compactions to
// settle (warm-up), then runs a fixed-duration random-overwrite phase;
// each window records its put count and p99 latency, and cross-window
// throughput variance (stddev and coefficient of variation over the
// complete windows) is the stability observable.  Runs are fixed-duration
// rather than fixed-ops so every cell yields the same number of
// comparable windows regardless of how fast its engine is.
//
// One JSON line per engine:
//   {"bench":"stability","engine":"iam","bg_threads":2,
//    "cpus":1,"duration_s":8.0,"window_s":1,"ops":123456,
//    "ops_per_sec":15432.0,"p99_us":210.0,"p999_us":1800.0,
//    "windows":[{"ops":15000,"p99_us":200.0},...],
//    "window_ops_mean":15000.0,"window_ops_stddev":300.0,"window_cv":0.02,
//    "stall_s":0.35,"final_debt_bytes":0}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/harness.h"

using namespace iamdb;

namespace {

constexpr int kValueSize = 1024;      // paper: 1KB values
constexpr double kWindowMicros = 1e6; // 1-second windows

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct EngineSpec {
  const char* name;
  EngineType engine;
  AmtPolicy policy;
};

struct WindowStat {
  uint64_t ops = 0;
  double p99_us = 0;
};

Options MakeCellOptions(const EngineSpec& spec, int bg_threads, Env* env) {
  Options options;
  options.env = env;
  options.engine = spec.engine;
  options.amt.policy = spec.policy;
  options.node_capacity = 256 << 10;
  options.table.block_size = 4096;
  options.amt.fanout = 10;
  options.leveled.target_file_size = 128 << 10;
  options.leveled.max_bytes_level1 = 5 * (256 << 10);
  options.background_threads = bg_threads;
  options.max_subcompactions = 4;
  return options;
}

void RunCell(const EngineSpec& spec, int bg_threads, double duration_s,
             uint64_t key_space) {
  MemEnv env;
  std::unique_ptr<DB> db;
  Status s = DB::Open(MakeCellOptions(spec, bg_threads, &env), "/bench", &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return;
  }

  Random64 rnd(42);
  const std::string value(kValueSize, 'v');

  // Warm-up: load the whole key space and let compactions settle, so the
  // timed windows measure steady-state overwrite behaviour rather than
  // the empty-tree transient (fast for every engine, and a monotone trend
  // that would swamp the cross-window variance this bench compares).
  // Cumulative counters are reported as deltas past this point.
  for (uint64_t i = 0; i < key_space; i++) {
    s = db->Put(WriteOptions(), Key(i), value);
    if (!s.ok()) {
      std::fprintf(stderr, "warm-up put failed: %s\n", s.ToString().c_str());
      return;
    }
  }
  db->FlushAll();
  db->WaitForQuiescence();
  // One second of untimed overwrites so every engine is already in its
  // steady overwrite regime when the first window opens.
  const double lead_deadline = NowMicros() + 1e6;
  while (NowMicros() < lead_deadline) {
    s = db->Put(WriteOptions(), Key(rnd.Uniform(key_space)), value);
    if (!s.ok()) {
      std::fprintf(stderr, "lead-in put failed: %s\n", s.ToString().c_str());
      return;
    }
  }
  const DbStats warm = db->GetStats();
  Histogram overall_us;
  Histogram window_us;
  std::vector<WindowStat> windows;
  uint64_t window_ops = 0;
  size_t cur_window = 0;
  uint64_t total_ops = 0;

  const double start = NowMicros();
  const double deadline = start + duration_s * 1e6;
  double now = start;
  while (now < deadline) {
    const double op_start = now;
    s = db->Put(WriteOptions(), Key(rnd.Uniform(key_space)), value);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return;
    }
    now = NowMicros();
    // A put that stalls across a boundary lands in the window where it
    // completed; intervening windows stay at zero ops -- that IS the
    // stall showing up in the window series.
    const size_t idx = static_cast<size_t>((now - start) / kWindowMicros);
    while (cur_window < idx) {
      windows.push_back({window_ops, window_us.Percentile(99)});
      window_ops = 0;
      window_us.Clear();
      cur_window++;
    }
    overall_us.Add(now - op_start);
    window_us.Add(now - op_start);
    window_ops++;
    total_ops++;
  }
  const double ingest_seconds = (now - start) / 1e6;
  // The final partial window is dropped: it covers less than a second, so
  // its op count is not comparable to the complete windows'.

  db->FlushAll();
  db->WaitForQuiescence();
  DbStats stats = db->GetStats();
  stats.stall_micros -= warm.stall_micros;

  double mean = 0, stddev = 0;
  if (!windows.empty()) {
    for (const WindowStat& w : windows) mean += static_cast<double>(w.ops);
    mean /= static_cast<double>(windows.size());
    for (const WindowStat& w : windows) {
      const double d = static_cast<double>(w.ops) - mean;
      stddev += d * d;
    }
    stddev = std::sqrt(stddev / static_cast<double>(windows.size()));
  }
  const double cv = mean > 0 ? stddev / mean : 0;

  std::printf("%-8s %10.0f %10.2f %10.2f %8zu %10.0f %8.3f %8.3f\n",
              spec.name, total_ops / ingest_seconds,
              overall_us.Percentile(99), overall_us.Percentile(99.9),
              windows.size(), mean, cv, stats.stall_micros / 1e6);

  std::string window_json;
  for (const WindowStat& w : windows) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s{\"ops\":%llu,\"p99_us\":%.2f}",
                  window_json.empty() ? "" : ",",
                  static_cast<unsigned long long>(w.ops), w.p99_us);
    window_json += buf;
  }
  std::printf(
      "{\"bench\":\"stability\",\"engine\":\"%s\",\"bg_threads\":%d,"
      "\"cpus\":%u,\"duration_s\":%.1f,\"window_s\":1,"
      "\"key_space\":%llu,\"ops\":%llu,\"ops_per_sec\":%.1f,\"p99_us\":%.2f,\"p999_us\":%.2f,"
      "\"windows\":[%s],\"window_ops_mean\":%.1f,\"window_ops_stddev\":%.1f,"
      "\"window_cv\":%.4f,\"stall_s\":%.3f,\"final_debt_bytes\":%llu}\n",
      spec.name, bg_threads, std::thread::hardware_concurrency(),
      duration_s, static_cast<unsigned long long>(key_space),
      static_cast<unsigned long long>(total_ops),
      total_ops / ingest_seconds, overall_us.Percentile(99),
      overall_us.Percentile(99.9), window_json.c_str(), mean, stddev, cv,
      stats.stall_micros / 1e6,
      static_cast<unsigned long long>(stats.pending_debt_bytes));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv, 1.0);
  // 60 one-second windows per cell: cross-window CV carries ~1/sqrt(2N)
  // sampling error, so 60 windows resolves CV differences of a few
  // hundredths that 10-20 windows cannot.
  const double duration_s = 60.0 * scale;
  // ~40MB live set at full scale: big enough to keep multi-level merges
  // running, small enough that the MemEnv footprint stays bounded under a
  // duration-driven op count.
  const uint64_t key_space =
      std::max<uint64_t>(2000, bench::Scaled(40000, scale));
  const int bg_threads = bench::ParseBgThreads(argc, argv, 2);

  const EngineSpec engines[] = {
      {"leveled", EngineType::kLeveled, AmtPolicy::kLsa},
      {"lsa", EngineType::kAmt, AmtPolicy::kLsa},
      {"iam", EngineType::kAmt, AmtPolicy::kIam},
  };

  std::printf(
      "=== stability (%.1fs of 1KB random overwrites/cell over %llu keys, "
      "%d bg) ===\n",
      duration_s, static_cast<unsigned long long>(key_space), bg_threads);
  std::printf("%-8s %10s %10s %10s %8s %10s %8s %8s\n", "engine", "ops/sec",
              "p99(us)", "p99.9(us)", "windows", "win_mean", "win_cv",
              "stall(s)");
  for (const EngineSpec& spec : engines) {
    RunCell(spec, bg_threads, duration_s, key_space);
  }
  return 0;
}
