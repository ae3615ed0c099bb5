// Benchmark harness: the paper's evaluated systems (L, R-nt, A-nt, I-nt) at
// laptop scale, plus run/measure/report plumbing.
//
// Amplifications (write/read/space) are measured exactly.  Throughput and
// latency are reported in *modeled device time*: every I/O the run issues
// is priced by the DeviceModel's SSD/HDD profiles (seek latency +
// bandwidth), which substitutes for the paper's physical disks — see
// DESIGN.md.  Normalized throughputs (the paper's figures) divide out the
// remaining constants.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "stats/device_model.h"
#include "util/histogram.h"
#include "workload/generators.h"

namespace iamdb::bench {

// The seven systems of the paper's evaluation (Sec 6.1).
enum class SystemId { kL, kR1, kR4, kA1, kA4, kI1, kI4 };

const char* SystemName(SystemId id);

// Scaled stand-ins for the paper's datasets.  All ratios (fanout t=10,
// file:node 1:2, level ratio 10x, memory:data) follow Sec 6.1.
struct ScaleConfig {
  uint64_t num_records;
  size_t value_size = 1024;     // paper: 1KB values
  uint64_t node_capacity;       // Ct (paper: 128MB)
  uint64_t cache_bytes;         // available memory stand-in
  // The (m,k) tuner's memory budget; 0 = same as cache_bytes.  Lets a
  // bench shrink the block cache without degrading the IAM policy.
  uint64_t tuner_budget_bytes = 0;
  int fanout = 10;
  // Overrides every system's background thread count when > 0 (the
  // per-system defaults — 1 or 4 per Sec 6.1 — apply at 0).
  int background_threads = 0;
  // Per-block codec for every system's tables (paper baseline: kNone).
  // Logical accounting keeps tree shapes codec-invariant, so sweeping this
  // changes space_used_bytes and IO volume but not amplification structure.
  CompressionType compression = CompressionType::kNone;

  // "100GB data, 16GB memory" at 1/1000 scale.
  static ScaleConfig Gb100();
  // "1TB data, 64GB memory" at 1/2000 scale.
  static ScaleConfig Tb1();
  // Tiny smoke-test configuration for quick runs.
  static ScaleConfig Smoke();

  uint64_t data_bytes() const { return num_records * (value_size + 20); }
};

Options MakeOptions(SystemId id, const ScaleConfig& scale, Env* env);

// One benchmark database instance.
class BenchDb {
 public:
  BenchDb(SystemId id, const ScaleConfig& scale);
  ~BenchDb();

  DB* db() { return db_.get(); }
  SystemId id() const { return id_; }
  const ScaleConfig& scale() const { return scale_; }
  uint64_t record_count() const { return record_count_; }
  void set_record_count(uint64_t n) { record_count_ = n; }

 private:
  SystemId id_;
  ScaleConfig scale_;
  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
  uint64_t record_count_ = 0;
};

// Outcome of one measured phase.
struct RunResult {
  uint64_t ops = 0;
  double wall_seconds = 0;
  double ssd_seconds = 0;  // modeled device-busy time (all I/O incl. bg)
  double hdd_seconds = 0;
  Histogram ssd_latency_us;  // per-op modeled latency
  Histogram hdd_latency_us;
  DbStats stats_after;

  // Operations per modeled device-second on `device` ("SSD" or "HDD").
  // Modeled time only: on MemEnv the wall clock measures the host, and a
  // wall-clock floor lets one slow cell shift a whole normalized row.
  double Throughput(const char* device) const {
    double denominator =
        std::string(device) == "SSD" ? ssd_seconds : hdd_seconds;
    return denominator > 0 ? ops / denominator : 0;
  }
  // Operations per wall-clock second: the host's speed, reported beside
  // the modeled figures rather than folded into them.
  double WallThroughput() const {
    return wall_seconds > 0 ? ops / wall_seconds : 0;
  }
};

// YCSB workload mixes (Sec 6.1/6.3-6.5); 'A'..'F' per the YCSB spec plus
// the paper's 'G' (95/5 long scans, 0-10000 records).
struct WorkloadSpec {
  double read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
  enum class Dist { kZipfian, kLatest, kUniform } dist = Dist::kZipfian;
  int max_scan_len = 100;

  static WorkloadSpec Ycsb(char which);
};

// What happens to outstanding compaction debt after a write phase:
//  * kSettleInWindow  — drain compactions INSIDE the measured window (the
//    phase pays for all the I/O it caused; right for amplification tables),
//  * kSettleOutside   — drain after the window closes (throughput excludes
//    deferred debt — LevelDB's overflow "advantage", paper Sec 6.2),
//  * kNoSettle        — leave the debt pending (the paper's tuning phase:
//    the next measured phase inherits the compaction traffic).
enum class SettleMode { kSettleInWindow, kSettleOutside, kNoSettle };

// Hash load (YCSB default: unordered inserts, no collisions) or sequential
// load (db_bench fillseq) of `n` fresh records.
//
// pace_debt_bytes > 0 throttles the writer whenever outstanding compaction
// debt exceeds the bound — emulating a device-bound deployment where
// ingest and compaction share disk bandwidth, so debt cannot grow without
// limit the way it can when a CPU-fast writer outruns a background thread.
RunResult Load(BenchDb* bench, uint64_t n, bool ordered,
               SettleMode settle = SettleMode::kSettleInWindow,
               uint64_t pace_debt_bytes = 0);

// Re-insert existing keys (db_bench overwrite / fillrandom shapes).
RunResult Overwrite(BenchDb* bench, uint64_t ops, bool random_order,
                    uint64_t seed);

// Run `ops` operations of the given mix against a loaded database.
// With settle_in_window, the compaction work the mix generated is drained
// inside the measured window, so a write-bearing workload pays its full
// steady-state amplification deterministically (how much background work
// lands inside a short window is otherwise wall-clock noise).
RunResult RunWorkload(BenchDb* bench, const WorkloadSpec& spec, uint64_t ops,
                      uint64_t seed, bool settle_in_window = false);

// Full-database scan (db_bench readseq).
RunResult ReadSeq(BenchDb* bench);

// ---- reporting helpers ----

// Prints "name: value" rows normalized to the first row; `wall`, if given,
// holds each row's wall-clock ops/s for a column of its own.
void PrintNormalized(const std::string& title,
                     const std::vector<std::pair<std::string, double>>& rows,
                     const std::vector<double>& wall = {});

void PrintLevelWriteAmps(const std::string& title,
                         const std::vector<std::pair<std::string, DbStats>>& rows);

// Reads the scale factor from argv ("--scale=0.5") or IAMDB_BENCH_SCALE.
double ParseScale(int argc, char** argv, double def = 1.0);

// Reads a background-thread override from argv ("--bg_threads=4") or
// IAMDB_BENCH_BG_THREADS; 0 means "keep the per-system defaults".
int ParseBgThreads(int argc, char** argv, int def = 0);

// Reads the block codec from argv ("--compression=columnar") or
// IAMDB_BENCH_COMPRESSION; unknown names fall back to `def`.
CompressionType ParseCompression(int argc, char** argv,
                                 CompressionType def = CompressionType::kNone);

inline uint64_t Scaled(uint64_t n, double scale) {
  uint64_t v = static_cast<uint64_t>(n * scale);
  return v < 1000 ? 1000 : v;
}

}  // namespace iamdb::bench
