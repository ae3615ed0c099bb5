// Compaction scaling: write-heavy ingest against 1/2/4/8 background
// threads for the leveled baseline and both AMT policies.  Partitioned
// subcompactions plus the two-lane scheduler are what let extra threads
// translate into fewer write stalls.  p99/p99.9 put latency and
// stall-seconds are the observables.
//
// One JSON line per (engine, bg_threads) cell:
//   {"bench":"compaction_scaling","engine":"iam","bg_threads":4,
//    "subcompactions":4,"cpus":8,"ops":20000,
//    "ops_per_sec":12345.6,"p99_us":210.0,"p999_us":1800.0,
//    "stall_seconds":0.35,"subcompactions_run":17}
// "cpus" records the machine the numbers came from: thread scaling is
// only meaningful with cores to scale onto.
#include <chrono>
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

constexpr int kValueSize = 1024;  // paper: 1KB values

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

void RunCell(const EngineSpec& spec, int bg_threads, uint64_t ops) {
  MemEnv env;
  std::unique_ptr<DB> db;
  Status s = DB::Open(MakeCellOptions(spec, bg_threads, &env), "/bench", &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return;
  }

  // Random overwrites over half the op count of keys: every key is
  // rewritten ~2x, so merges carry real shadowing work.
  const uint64_t key_space = ops / 2;
  Random64 rnd(42);
  const std::string value(kValueSize, 'v');
  Histogram latency_us;
  const double start = NowMicros();
  for (uint64_t i = 0; i < ops; i++) {
    const double op_start = NowMicros();
    s = db->Put(WriteOptions(), Key(rnd.Uniform(key_space)), value);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return;
    }
    latency_us.Add(NowMicros() - op_start);
  }
  const double ingest_seconds = (NowMicros() - start) / 1e6;
  db->FlushAll();
  db->WaitForQuiescence();
  DbStats stats = db->GetStats();

  std::printf("%-8s %10d %12.0f %10.2f %10.2f %9.3f %8llu\n", spec.name,
              bg_threads, ops / ingest_seconds, latency_us.Percentile(99),
              latency_us.Percentile(99.9), stats.stall_micros / 1e6,
              static_cast<unsigned long long>(stats.subcompactions_run));
  std::printf(
      "{\"bench\":\"compaction_scaling\",\"engine\":\"%s\","
      "\"bg_threads\":%d,\"subcompactions\":4,"
      "\"cpus\":%u,\"ops\":%llu,\"ops_per_sec\":%.1f,\"p99_us\":%.2f,"
      "\"p999_us\":%.2f,\"stall_seconds\":%.3f,\"subcompactions_run\":%llu}\n",
      spec.name, bg_threads, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(ops), ops / ingest_seconds,
      latency_us.Percentile(99), latency_us.Percentile(99.9),
      stats.stall_micros / 1e6,
      static_cast<unsigned long long>(stats.subcompactions_run));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv, 1.0);
  const uint64_t ops = bench::Scaled(20000, scale);
  // --bg_threads pins the sweep to one thread count (e.g. for a quick run
  // on a small machine); default sweeps the paper's "-nt" axis.
  const int pinned = bench::ParseBgThreads(argc, argv, 0);
  const std::vector<int> thread_counts =
      pinned > 0 ? std::vector<int>{pinned} : std::vector<int>{1, 2, 4, 8};

  const EngineSpec engines[] = {
      {"leveled", EngineType::kLeveled, AmtPolicy::kLsa},
      {"lsa", EngineType::kAmt, AmtPolicy::kLsa},
      {"iam", EngineType::kAmt, AmtPolicy::kIam},
  };

  std::printf("=== compaction scaling (%llu 1KB random puts/cell) ===\n",
              static_cast<unsigned long long>(ops));
  std::printf("%-8s %10s %12s %10s %10s %9s %8s\n", "engine", "bg_threads",
              "ops/sec", "p99(us)", "p99.9(us)", "stall(s)", "subcomp");
  for (const EngineSpec& spec : engines) {
    for (int threads : thread_counts) RunCell(spec, threads, ops);
  }
  return 0;
}
