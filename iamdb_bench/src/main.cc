// iamdb_bench: the repository benchmark program.
//
//   iamdb_bench --workload=<name> --seed=<n> [--seconds=<s>] [--scale=<f>]
//               [--trace=<dir>]
//
// Runs rounds of one workload (workloads.h) until the measured windows add
// up to --seconds (at least three rounds), then prints a table to stderr
// and, as the last stdout line, one JSON object with every end-to-end
// metric over the untraced rounds, times scaled to the reference machine
// speed (speed.h).  With --trace, every second round runs
// traced (trace.h); the JSON then adds the per-layer metrics under
// "layers" and <dir>/<workload>.trace.json holds the kept spans.  Exits
// non-zero if any operation failed or any check failed.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "model.h"
#include "stats/device_model.h"
#include "trace.h"
#include "workloads.h"

#ifndef IAMDB_BENCH_GIT_SHA
#define IAMDB_BENCH_GIT_SHA "unknown"
#endif

namespace iamdb::bench {
namespace {

// A run stops starting rounds after this long, so it ends well inside the
// three minutes a run may take even when the machine is slow.
constexpr double kMaxRunSeconds = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  double scale = 1.0;
  std::string trace_dir;  // empty = untraced
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return std::strncmp(a, flag, n) == 0 ? a + n : nullptr;
    };
    const char* v;
    char* end = nullptr;
    if ((v = value("--workload=")) != nullptr) {
      args->workload = v;
    } else if ((v = value("--seed=")) != nullptr) {
      args->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      have_seed = true;
    } else if ((v = value("--seconds=")) != nullptr) {
      args->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args->seconds > 0)) return false;
    } else if ((v = value("--scale=")) != nullptr) {
      args->scale = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args->scale > 0)) return false;
    } else if ((v = value("--trace=")) != nullptr) {
      args->trace_dir = v;
      if (args->trace_dir.empty()) return false;
    } else {
      return false;
    }
  }
  return have_seed && !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (reorders *v).
double Percentile(std::vector<float>* v, double q) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + index, v->end());
  return (*v)[index];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Latency samples of a whole run, pooled in a fixed-size log-scale
// histogram: the run's memory must not grow with its number of rounds, or
// peak_rss_mb would rise with the rounds a faster commit fits into
// --seconds.  Buckets are 0.1% wide; a percentile interpolates by rank
// inside its bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(float us) {
    counts_[Bucket(us)]++;
    total_++;
  }
  uint64_t count() const { return total_; }

  // Nearest-rank percentile, to within one bucket.
  double Percentile(double q) const {
    if (total_ == 0) return 0;
    const double rank = std::max(1.0, std::ceil(q * total_));
    uint64_t below = 0;
    for (size_t b = 0; b < kBuckets; b++) {
      if (below + counts_[b] >= rank) {
        double within = (rank - below - 0.5) / counts_[b];
        return kMinUs * std::pow(kGrowth, b + within);
      }
      below += counts_[b];
    }
    return kMinUs * std::pow(kGrowth, kBuckets);
  }

 private:
  static constexpr double kMinUs = 0.01;  // lower edge of bucket 0
  static constexpr double kGrowth = 1.001;
  static constexpr size_t kBuckets = 23100;  // up to about 100 s

  static size_t Bucket(double us) {
    if (!(us > kMinUs)) return 0;
    double b = std::log(us / kMinUs) / std::log(kGrowth);
    return std::min(static_cast<size_t>(b), kBuckets - 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Resets the process's resident-set high-water mark (VmHWM) to its current
// resident set, so that the next reading covers one round only.
void ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// VmHWM since the last ResetPeakRss(), or since the process started where
// the kernel cannot reset it.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Median over rounds of a per-round quantity.
template <typename Fn>
double MedianOf(const std::vector<const RoundResult*>& rounds, Fn fn) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(fn(*r));
  return Median(v);
}

double ModeledSeconds(const IoStatsSnapshot& io, const DeviceProfile& profile) {
  return DeviceModel(profile).TotalMicros(io) / 1e6;
}

// The window without its speed probes, scaled to the reference speed.
double ScaledWindowSeconds(const RoundResult& r) {
  return (r.window_s - r.probe_s) * r.time_scale;
}

double OpsPerSecond(const RoundResult& r) {
  return Ratio(r.ops, ScaledWindowSeconds(r));
}

// Total requests over total scaled window time.
double PooledOpsPerSecond(const std::vector<const RoundResult*>& rounds) {
  double ops = 0, window_s = 0;
  for (const RoundResult* r : rounds) {
    ops += r->ops;
    window_s += ScaledWindowSeconds(*r);
  }
  return Ratio(ops, window_s);
}

// End-to-end metrics over the untraced rounds.  Times are scaled to the
// reference machine speed (speed.h).  Rates and amplification pool the
// rounds (total work over total time), which averages over the rounds'
// different inputs; set-up time and peak memory are the median round's.
std::vector<Metric> EndToEndMetrics(
    const std::vector<const RoundResult*>& rounds) {
  double ops = 0, window_s = 0, cpu_s = 0, ssd_s = 0, hdd_s = 0;
  double table_bytes = 0, user_bytes = 0, space_bytes = 0, live_bytes = 0;
  for (const RoundResult* r : rounds) {
    ops += r->ops;
    window_s += ScaledWindowSeconds(*r);
    cpu_s += r->cpu_s * r->time_scale;
    ssd_s += ModeledSeconds(r->io, DeviceProfile::SSD());
    hdd_s += ModeledSeconds(r->io, DeviceProfile::HDD());
    table_bytes += r->lifetime_table_bytes;
    user_bytes += r->lifetime_user_bytes;
    space_bytes += r->space_used_bytes;
    live_bytes += r->live_bytes;
  }
  return {
      {"setup_s", MedianOf(rounds, [](const RoundResult& r) {
         return r.setup_s;
       }), "s"},
      {"ops_per_s", Ratio(ops, window_s), "1/s"},
      {"cpu_us_per_op", Ratio(cpu_s * 1e6, ops), "us"},
      {"write_amp", Ratio(table_bytes, user_bytes), "x"},
      {"space_amp", Ratio(space_bytes, live_bytes), "x"},
      {"ssd_ops_per_s", Ratio(ops, ssd_s), "1/s"},
      {"hdd_ops_per_s", Ratio(ops, hdd_s), "1/s"},
      {"peak_rss_mb", MedianOf(rounds, [](const RoundResult& r) {
         return r.peak_rss_mb;
       }), "MB"},
  };
}

// Request latency percentiles over the untraced rounds, scaled.  They are
// not end-to-end metrics: on a loaded host they spread further from run to
// run than the largest bound a metric may have, even scaled (a cache-hit
// Get slows down more than the speed probe does), and on `ingest` the p99
// falls among puts that wait for background compaction, so it moves with
// how fast the background threads run next to the writer.
std::vector<Metric> LatencyMetrics(const LatencyHistogram& latencies) {
  return {
      {"request.p50_us", latencies.Percentile(0.50), "us"},
      {"request.p99_us", latencies.Percentile(0.99), "us"},
  };
}

// Layer metrics of one traced round.  Request time R splits into shares
// that add up to 1: the wire path outside the DB call (serve), core self
// time, write stalls, foreground WAL appends, foreground table reads, other
// foreground env time, and what no layer span covers (unattributed).
std::vector<Metric> LayerMetrics(const RoundResult& r) {
  const LayerTotals& t = r.layers;
  const double ops = static_cast<double>(t.v[LayerTotals::kRequests]);
  const double request_ns = t.v[LayerTotals::kRequestNs];
  const double wire_ns = t.v[LayerTotals::kWireNs];
  const double call_ns = t.v[LayerTotals::kCallNs];
  const double stall_ns = t.v[LayerTotals::kStallUs] * 1e3;
  const double fg_env_ns = t.env_ns(kForeground);
  const double wal_ns = t.env_ns(kForeground, kWalFile, kEnvWrite);
  const double read_ns = t.env_ns(kForeground, kTableFile, kEnvRead);
  const double core_self_ns = call_ns - fg_env_ns - stall_ns;
  const double outer_ns = wire_ns > 0 ? wire_ns : call_ns;
  const double bg_ns = t.env_ns(kBackground);
  const double puts = static_cast<double>(r.puts);
  uint64_t wal_bytes = 0;
  for (int side = 0; side < kNumSides; side++) {
    wal_bytes += t.env_bytes(static_cast<Side>(side), kWalFile, kEnvWrite);
  }
  auto amp = [&](WriteReason reason) {
    return Ratio(r.reason_bytes[static_cast<int>(reason)], r.user_bytes);
  };
  const ServerStats& s = r.server;
  return {
      {"request.us_per_op", Ratio(request_ns / 1e3, ops), "us"},
      {"bench.probe_us", r.median_probe_s * 1e6, "us"},
      {"bench.unattributed_frac", Ratio(request_ns - outer_ns, request_ns),
       "fraction"},
      {"bench.check_frac",
       Ratio(r.check_s, r.check_s + request_ns / 1e9), "fraction"},
      {"server.share", Ratio(wire_ns > 0 ? wire_ns - call_ns : 0, request_ns),
       "fraction"},
      {"server.responses_per_writev",
       Ratio(s.responses_written, s.writev_calls), "count"},
      {"server.loop_iters_per_request",
       Ratio(s.loop_iterations, s.requests), "count"},
      {"server.bytes_per_request",
       Ratio(s.bytes_received + s.bytes_sent, s.requests), "B"},
      {"core.self_us_per_op", Ratio(core_self_ns / 1e3, ops), "us"},
      {"core.self_share", Ratio(core_self_ns, request_ns), "fraction"},
      {"core.stall_share", Ratio(stall_ns, request_ns), "fraction"},
      {"core.calls_per_op", Ratio(t.v[LayerTotals::kCalls], ops), "count"},
      {"wal.append_us_per_op", Ratio(wal_ns / 1e3, ops), "us"},
      {"wal.append_share", Ratio(wal_ns, request_ns), "fraction"},
      {"wal.bytes_per_put", Ratio(wal_bytes, puts), "B"},
      {"memtable.rotations", static_cast<double>(t.created(kWalFile)),
       "count"},
      {"amt.flush_amp", amp(WriteReason::kFlush), "x"},
      {"amt.append_amp", amp(WriteReason::kAppend), "x"},
      {"amt.merge_amp", amp(WriteReason::kMerge), "x"},
      {"amt.split_amp", amp(WriteReason::kSplit), "x"},
      {"amt.metadata_amp", amp(WriteReason::kMetadata), "x"},
      // AmpStats indexes AMT levels from 1 (the memtable is L0).
      {"amt.level1_wamp", Ratio(r.level_bytes[1], r.user_bytes), "x"},
      {"amt.level2_wamp", Ratio(r.level_bytes[2], r.user_bytes), "x"},
      {"amt.level3_wamp", Ratio(r.level_bytes[3], r.user_bytes), "x"},
      {"amt.mixed_level", static_cast<double>(r.mixed_level), "count"},
      {"amt.mixed_k", static_cast<double>(r.mixed_k), "count"},
      {"amt.bg_busy_s", bg_ns / 1e9, "s"},
      {"amt.bg_read_share",
       Ratio(t.env_ns(kBackground, kEnvRead), bg_ns), "fraction"},
      {"amt.drain_s", r.drain_s, "s"},
      {"amt.debt_mb_max", r.debt_max_bytes / 1048576.0, "MB"},
      {"amt.nodes", static_cast<double>(r.nodes), "count"},
      {"table.cache_hit_rate",
       Ratio(r.cache_hits, r.cache_hits + r.cache_misses), "fraction"},
      {"table.reads_per_op", Ratio(t.v[LayerTotals::kFgSeeks], ops), "count"},
      {"table.kb_read_per_op",
       Ratio(t.v[LayerTotals::kFgReadBytes] / 1024.0, ops), "KB"},
      {"env.read_share", Ratio(read_ns, request_ns), "fraction"},
      {"env.other_share", Ratio(fg_env_ns - wal_ns - read_ns, request_ns),
       "fraction"},
      {"env.write_mb", r.io.bytes_written / 1048576.0, "MB"},
      {"env.read_mb", r.io.bytes_read / 1048576.0, "MB"},
      {"env.fsyncs", static_cast<double>(r.io.fsyncs), "count"},
      {"stats.ssd_busy_s", ModeledSeconds(r.io, DeviceProfile::SSD()), "s"},
      {"stats.hdd_busy_s", ModeledSeconds(r.io, DeviceProfile::HDD()), "s"},
      {"stats.read_ops", static_cast<double>(r.io.read_ops), "count"},
      {"stats.write_ops", static_cast<double>(r.io.write_ops), "count"},
  };
}

// Per-layer metrics over all traced rounds: the median of each, plus the
// tracing overhead against the untraced rounds of the same run and those
// rounds' latency percentiles.
std::vector<Metric> MedianLayerMetrics(
    const std::vector<const RoundResult*>& traced,
    const std::vector<const RoundResult*>& untraced,
    const LatencyHistogram& untraced_latencies) {
  std::vector<std::vector<Metric>> per_round;
  for (const RoundResult* r : traced) per_round.push_back(LayerMetrics(*r));
  std::vector<Metric> out = LatencyMetrics(untraced_latencies);
  out.push_back({"bench.trace_overhead_frac",
                 1 - Ratio(PooledOpsPerSecond(traced),
                           PooledOpsPerSecond(untraced)),
                 "fraction"});
  for (size_t i = 0; i < per_round[0].size(); i++) {
    std::vector<double> v;
    for (const auto& m : per_round) v.push_back(m[i].value);
    out.push_back({per_round[0][i].name, Median(v), per_round[0][i].unit});
  }
  return out;
}

void AppendMetrics(std::string* out, const std::vector<Metric>& metrics) {
  char buf[128];
  *out += "{";
  for (size_t i = 0; i < metrics.size(); i++) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    *out += buf;
  }
  *out += "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
}

int Run(const Args& args) {
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "iamdb_bench: unknown workload '%s' (have:",
                 args.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const bool traced = !args.trace_dir.empty();
  const int min_rounds = traced ? 4 : 3;
  const auto run_start = std::chrono::steady_clock::now();

  std::vector<RoundResult> rounds;
  LatencyHistogram latencies;  // untraced rounds
  double measured_s = 0;
  bool all_checks_ok = true;
  uint64_t attempted = 0, failed = 0;
  for (int i = 0;; i++) {
    RoundParams params;
    params.seed = Mix64(args.seed * 0x9e3779b97f4a7c15ull + i);
    params.scale = args.scale;
    params.traced = traced && i % 2 == 1;
    // Return the last round's freed memory first, so the reset high-water
    // mark starts from what the process holds between rounds.
    malloc_trim(0);
    ResetPeakRss();
    RoundResult r = def->run(params);
    r.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "round %d%s: setup %.3fs window %.3fs (drain %.3fs, "
                 "probes %.3fs, time scale %.3f) ops %" PRIu64
                 " (%.0f/s, cpu %.2fus, p50 %.2fus, p99 %.2fus) "
                 "write_amp %.3f peak_rss %.1fMB failed %" PRIu64
                 " check %.3fs%s\n",
                 i, params.traced ? " (traced)" : "", r.setup_s, r.window_s,
                 r.drain_s, r.probe_s, r.time_scale, r.ops, OpsPerSecond(r),
                 Ratio(r.cpu_s * r.time_scale * 1e6, r.ops),
                 Percentile(&r.op_us, 0.50), Percentile(&r.op_us, 0.99),
                 Ratio(r.lifetime_table_bytes, r.lifetime_user_bytes),
                 r.peak_rss_mb, r.failed, r.check_s,
                 r.final_check_ok ? "" : " FINAL CHECK FAILED");
    measured_s += r.window_s;
    attempted += r.ops;
    failed += r.failed + (r.final_check_ok ? 0 : 1);
    all_checks_ok = all_checks_ok && r.final_check_ok;
    if (!params.traced) {
      for (float us : r.op_us) latencies.Add(us);
    }
    std::vector<float>().swap(r.op_us);
    rounds.push_back(std::move(r));
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - run_start)
                         .count();
    if (static_cast<int>(rounds.size()) >= min_rounds &&
        (measured_s >= args.seconds || elapsed >= kMaxRunSeconds)) {
      break;
    }
  }

  std::vector<const RoundResult*> plain, with_trace;
  for (size_t i = 0; i < rounds.size(); i++) {
    bool round_traced = traced && i % 2 == 1;
    (round_traced ? with_trace : plain).push_back(&rounds[i]);
  }
  const uint64_t samples = latencies.count();

  std::vector<Metric> metrics = EndToEndMetrics(plain);
  PrintTable("end-to-end (untraced rounds)", metrics);
  PrintTable("latency (untraced rounds)", LatencyMetrics(latencies));
  std::vector<Metric> layers;
  if (traced) {
    layers = MedianLayerMetrics(with_trace, plain, latencies);
    PrintTable("per-layer (median over traced rounds)", layers);
    std::string path = args.trace_dir + "/" + args.workload + ".trace.json";
    int64_t spans = WriteChromeTrace(path);
    if (spans < 0) {
      std::fprintf(stderr, "iamdb_bench: cannot write %s\n", path.c_str());
      all_checks_ok = false;
    } else {
      std::fprintf(stderr, "trace: %" PRId64 " spans in %s\n", spans,
                   path.c_str());
    }
  }
  const bool correct = all_checks_ok && failed == 0;

  char buf[512];
  std::string config = def->config + " scale=" + std::to_string(args.scale);
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"iamdb_bench\",\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"scale\":%.17g,\"seconds\":%.17g,\"rounds\":%zu,\"git_sha\":\"%s\","
      "\"config_hash\":\"%016" PRIx64 "\",\"cpus\":%u,\"correct\":%s,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"samples\":{\"request.p50_us\":%" PRIu64 ",\"request.p99_us\":%" PRIu64
      "},\"metrics\":",
      args.workload.c_str(), args.seed, args.scale, args.seconds,
      rounds.size(), IAMDB_BENCH_GIT_SHA, Fnv1a64(config),
      std::thread::hardware_concurrency(), correct ? "true" : "false",
      attempted, failed, samples, samples);
  std::string json = buf;
  AppendMetrics(&json, metrics);
  if (traced) {
    json += ",\"layers\":";
    AppendMetrics(&json, layers);
  }
  json += "}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace iamdb::bench

int main(int argc, char** argv) {
  iamdb::bench::Args args;
  if (!iamdb::bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=<name> --seed=<n> [--seconds=<s>] "
                 "[--scale=<f>] [--trace=<dir>]\n",
                 argv[0]);
    return 2;
  }
  return iamdb::bench::Run(args);
}
