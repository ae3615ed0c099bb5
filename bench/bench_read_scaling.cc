// Read-path scaling: point-read and 95/5 (get/put) mixed throughput plus
// p50/p99 latency at 1, 2, 4, 8 and 16 threads, measured two ways:
//   mode=db     — threads call DB::Get / DB::Put directly (no wire), so
//                 this isolates the in-process read path: with the
//                 lock-free ReadView, Get shares no lock with writers.
//   mode=server — the same workload through the network serving layer
//                 (encode -> TCP -> decode -> dispatch -> DB -> respond),
//                 one connection per thread.
// The working set is preloaded and quiesced so point reads run against a
// cached tree: any scaling loss is contention, not I/O.
//
// One JSON line per (mode, op, threads) cell, same shape as
// bench_server_throughput:
//   {"bench":"read_scaling","mode":"db","op":"get","threads":4,"cpus":8,
//    "ops":100000,"failed":0,"ops_per_sec":123456.7,"p50_us":3.0,
//    "p99_us":11.2}
// "failed" counts operations that returned an error other than NotFound;
// they are left out of ops and latency.  The program exits 1 if any cell
// failed one.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "server/client.h"
#include "server/server.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/harness.h"

using namespace iamdb;

namespace {

constexpr int kValueSize = 100;

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

struct CellResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double ops_per_sec = 0;
  Histogram latency_us;
};

// Folds per-thread histograms and failure counts into one result.
CellResult Collect(const std::vector<Histogram>& histograms,
                   const std::vector<uint64_t>& failed, double elapsed_us) {
  CellResult result;
  for (const Histogram& h : histograms) result.latency_us.Merge(h);
  for (uint64_t n : failed) result.failed += n;
  result.ops = result.latency_us.Count();
  result.ops_per_sec = result.ops / (elapsed_us / 1e6);
  return result;
}

// One operation: a point read, or (for the mixed cell) a put on 5% of ops.
// `put_percent` of 0 gives the pure point-read cell.
struct Workload {
  uint64_t key_space;
  int put_percent;  // 0 or 5
};

CellResult RunDbCell(DB* db, const Workload& w, int threads,
                     uint64_t ops_per_thread) {
  std::vector<Histogram> histograms(threads);
  std::vector<uint64_t> failed(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const double start = NowMicros();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      Random64 rnd(2000 + t);
      const std::string value(kValueSize, 'v');
      std::string out;
      for (uint64_t i = 0; i < ops_per_thread; i++) {
        const std::string key = Key(rnd.Uniform(w.key_space));
        const bool do_put =
            w.put_percent > 0 &&
            rnd.Uniform(100) < static_cast<uint64_t>(w.put_percent);
        const double op_start = NowMicros();
        Status s = do_put ? db->Put(WriteOptions(), key, value)
                          : db->Get(ReadOptions(), key, &out);
        if (s.IsNotFound()) s = Status::OK();
        if (!s.ok()) {
          failed[t]++;
          continue;
        }
        histograms[t].Add(NowMicros() - op_start);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return Collect(histograms, failed, NowMicros() - start);
}

CellResult RunServerCell(int port, const Workload& w, int threads,
                         uint64_t ops_per_thread) {
  std::vector<Histogram> histograms(threads);
  std::vector<uint64_t> failed(threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const double start = NowMicros();
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      ClientOptions options;
      options.port = port;
      Client client(options);
      Random64 rnd(3000 + t);
      const std::string value(kValueSize, 'v');
      std::string out;
      for (uint64_t i = 0; i < ops_per_thread; i++) {
        const std::string key = Key(rnd.Uniform(w.key_space));
        const bool do_put =
            w.put_percent > 0 &&
            rnd.Uniform(100) < static_cast<uint64_t>(w.put_percent);
        const double op_start = NowMicros();
        Status s = do_put ? client.Put(key, value) : client.Get(key, &out);
        if (s.IsNotFound()) s = Status::OK();
        if (!s.ok()) {
          failed[t]++;
          continue;
        }
        histograms[t].Add(NowMicros() - op_start);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return Collect(histograms, failed, NowMicros() - start);
}

// Failed operations across every cell reported so far.
uint64_t total_failed = 0;

void Report(const char* mode, const char* op, int threads,
            const CellResult& r) {
  total_failed += r.failed;
  std::printf("%-7s %-9s %8d %12.0f %10.2f %10.2f\n", mode, op, threads,
              r.ops_per_sec, r.latency_us.Percentile(50),
              r.latency_us.Percentile(99));
  std::printf(
      "{\"bench\":\"read_scaling\",\"mode\":\"%s\",\"op\":\"%s\","
      "\"threads\":%d,\"cpus\":%u,\"ops\":%llu,\"failed\":%llu,"
      "\"ops_per_sec\":%.1f,\"p50_us\":%.2f,\"p99_us\":%.2f}\n",
      mode, op, threads, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.failed), r.ops_per_sec,
      r.latency_us.Percentile(50), r.latency_us.Percentile(99));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv, 1.0);
  const uint64_t ops_per_cell = bench::Scaled(100000, scale);
  const uint64_t key_space = bench::Scaled(50000, scale);

  MemEnv env;
  Options db_options;
  db_options.env = &env;
  db_options.background_threads = 2;
  // Cache sized well above the data set so the point-read cells run fully
  // cached — scaling is then a pure concurrency measurement.
  db_options.block_cache_capacity = 256ull << 20;
  std::unique_ptr<DB> db;
  Status s = DB::Open(db_options, "/bench-read-scaling", &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Preload and settle, then touch every key once to warm the block cache.
  {
    const std::string value(kValueSize, 'v');
    for (uint64_t i = 0; i < key_space; i++) {
      if (!db->Put(WriteOptions(), Key(i), value).ok()) {
        std::fprintf(stderr, "preload failed\n");
        return 1;
      }
    }
    if (!db->FlushAll().ok()) {
      std::fprintf(stderr, "settle failed\n");
      return 1;
    }
    std::string out;
    for (uint64_t i = 0; i < key_space; i++) {
      if (!db->Get(ReadOptions(), Key(i), &out).ok()) {
        std::fprintf(stderr, "warmup read failed\n");
        return 1;
      }
    }
  }

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 16;
  Server server(db.get(), server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf(
      "=== read scaling (cached working set, %llu keys, %llu ops/cell) ===\n",
      static_cast<unsigned long long>(key_space),
      static_cast<unsigned long long>(ops_per_cell));
  std::printf("%-7s %-9s %8s %12s %10s %10s\n", "mode", "op", "threads",
              "ops/sec", "p50(us)", "p99(us)");

  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  const Workload kPointRead{key_space, 0};
  const Workload kMixed{key_space, 5};

  for (int threads : thread_counts) {
    const uint64_t per_thread = std::max<uint64_t>(1, ops_per_cell / threads);
    Report("db", "get", threads,
           RunDbCell(db.get(), kPointRead, threads, per_thread));
  }
  for (int threads : thread_counts) {
    const uint64_t per_thread = std::max<uint64_t>(1, ops_per_cell / threads);
    Report("db", "mixed_95_5", threads,
           RunDbCell(db.get(), kMixed, threads, per_thread));
    db->WaitForQuiescence();
  }
  for (int threads : thread_counts) {
    const uint64_t per_thread = std::max<uint64_t>(1, ops_per_cell / threads);
    Report("server", "get", threads,
           RunServerCell(server.port(), kPointRead, threads, per_thread));
  }
  for (int threads : thread_counts) {
    const uint64_t per_thread = std::max<uint64_t>(1, ops_per_cell / threads);
    Report("server", "mixed_95_5", threads,
           RunServerCell(server.port(), kMixed, threads, per_thread));
    db->WaitForQuiescence();
  }

  server.Stop();
  if (total_failed > 0) {
    std::fprintf(stderr, "%llu operations failed\n",
                 static_cast<unsigned long long>(total_failed));
    return 1;
  }
  return 0;
}
