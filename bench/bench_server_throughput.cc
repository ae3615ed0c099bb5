// Loopback throughput/latency for the network serving layer: PUT and GET
// ops/sec + p50/p99/p999 at 1, 4 and 16 client connections against an
// in-process iamdb Server, then the event-driven axes: pipelined GETs at
// depth 1/8/64 and MGET at batch 1/8/64, both at 16 connections.  Unlike
// the paper benches (modeled device time), this measures real wall-clock
// through the full wire path:
// encode -> TCP -> decode -> dispatch -> DB -> respond.
//
// One JSON line per cell, e.g.:
//   {"bench":"server_throughput","op":"put","connections":4,"ops":40000,
//    "failed":0,"ops_per_sec":123456.7,"p50_us":30.1,"p99_us":210.9,...,
//    "cpus":1}
//   {"bench":"server_async","op":"pipelined_get","connections":16,
//    "depth":8,...}
//
// --db_shards=N serves a hash-partitioned ShardedDB instead of a single
// instance; --shard_sweep replaces the standard suite with a PUT/GET/MGET
// sweep over db_shards in {1,2,4,8} ("bench":"sharding" JSON lines; each
// MGET is one frame that the server routes to the shards); --mget_sweep
// replaces it with a looped-GET vs batched-MGET comparison, cold and warm
// cache, per engine ("bench":"mget_sweep" JSON lines).
//
// "failed" counts operations (MGET: keys) that returned an error other than
// NotFound; they are left out of ops and latency.  The program exits 1 if
// any cell failed one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_db.h"
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

// Failed operations across every cell printed so far.
uint64_t total_failed = 0;

// Folds per-connection histograms and failure counts into one result.
CellResult Collect(const std::vector<Histogram>& histograms,
                   const std::vector<uint64_t>& failed, double elapsed_us) {
  CellResult result;
  for (const Histogram& h : histograms) result.latency_us.Merge(h);
  for (uint64_t n : failed) result.failed += n;
  result.ops = result.latency_us.Count();
  result.ops_per_sec = result.ops / (elapsed_us / 1e6);
  total_failed += result.failed;
  return result;
}

// Exit status: 1, with the count on stderr, if any cell failed an operation.
int ExitCode() {
  if (total_failed == 0) return 0;
  std::fprintf(stderr, "%llu operations failed\n",
               static_cast<unsigned long long>(total_failed));
  return 1;
}

// Runs `ops_per_conn` ops on each of `connections` client threads.
CellResult RunCell(int port, int connections, uint64_t ops_per_conn,
                   uint64_t key_space, bool do_put) {
  std::vector<Histogram> histograms(connections);
  std::vector<uint64_t> failed(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const double start = NowMicros();
  for (int c = 0; c < connections; c++) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.port = port;
      Client client(options);
      Random64 rnd(1000 + c);
      const std::string value(kValueSize, 'v');
      for (uint64_t i = 0; i < ops_per_conn; i++) {
        const std::string key = Key(rnd.Uniform(key_space));
        const double op_start = NowMicros();
        Status s;
        if (do_put) {
          s = client.Put(key, value);
        } else {
          std::string out;
          s = client.Get(key, &out);
          if (s.IsNotFound()) s = Status::OK();  // sparse preload is fine
        }
        if (!s.ok()) {
          failed[c]++;
          continue;
        }
        histograms[c].Add(NowMicros() - op_start);
      }
    });
  }
  for (auto& t : threads) t.join();
  return Collect(histograms, failed, NowMicros() - start);
}

// Each thread keeps `depth` GETs in flight on one connection via the
// pipelined Submit/Wait API.  Latency is per request, submit to claim.
CellResult RunPipelinedGetCell(int port, int connections,
                               uint64_t ops_per_conn, uint64_t key_space,
                               int depth) {
  std::vector<Histogram> histograms(connections);
  std::vector<uint64_t> failed(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const double start = NowMicros();
  for (int c = 0; c < connections; c++) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.port = port;
      Client client(options);
      Random64 rnd(2000 + c);
      std::deque<std::pair<uint64_t, double>> window;  // (id, submit time)
      auto claim_front = [&] {
        auto [id, submitted] = window.front();
        window.pop_front();
        std::string out;
        Status s = client.WaitGet(id, &out);
        if (!s.ok() && !s.IsNotFound()) {
          failed[c]++;
        } else {
          histograms[c].Add(NowMicros() - submitted);
        }
      };
      for (uint64_t i = 0; i < ops_per_conn; i++) {
        if (window.size() >= static_cast<size_t>(depth)) claim_front();
        const std::string key = Key(rnd.Uniform(key_space));
        const double submitted = NowMicros();
        uint64_t id = client.SubmitGet(key);
        if (id == 0) {
          failed[c]++;
          continue;
        }
        window.emplace_back(id, submitted);
      }
      while (!window.empty()) claim_front();
    });
  }
  for (auto& t : threads) t.join();
  return Collect(histograms, failed, NowMicros() - start);
}

// Each op is one MGET of `batch` random keys; latency is per batch but
// ops/ops_per_sec count keys, so cells compare directly against GET.
CellResult RunMgetCell(int port, int connections, uint64_t keys_per_conn,
                       uint64_t key_space, int batch) {
  std::vector<Histogram> histograms(connections);
  std::vector<uint64_t> key_counts(connections, 0);  // joined before read
  std::vector<uint64_t> failed(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const double start = NowMicros();
  for (int c = 0; c < connections; c++) {
    threads.emplace_back([&, c] {
      ClientOptions options;
      options.port = port;
      Client client(options);
      Random64 rnd(3000 + c);
      std::vector<std::string> keys(batch);
      uint64_t done = 0;  // keys attempted
      while (done < keys_per_conn) {
        for (auto& key : keys) key = Key(rnd.Uniform(key_space));
        const double op_start = NowMicros();
        std::vector<std::string> values;
        std::vector<Status> statuses;
        Status s = client.MultiGet(keys, &values, &statuses);
        done += keys.size();
        if (!s.ok()) {
          failed[c] += keys.size();
          continue;
        }
        uint64_t key_failures = 0;
        for (const Status& key_status : statuses) {
          if (!key_status.ok() && !key_status.IsNotFound()) key_failures++;
        }
        failed[c] += key_failures;
        key_counts[c] += keys.size() - key_failures;
        histograms[c].Add(NowMicros() - op_start);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_us = NowMicros() - start;
  CellResult result = Collect(histograms, failed, elapsed_us);
  // ops and ops_per_sec count keys, not batches.
  result.ops = 0;
  for (uint64_t n : key_counts) result.ops += n;
  result.ops_per_sec = result.ops / (elapsed_us / 1e6);
  return result;
}

// PUT / GET / MGET against a fresh ShardedDB(N) per point:
// the scaling story of hash partitioning through the full wire path.
int RunShardSweep(uint64_t ops_per_cell, uint64_t key_space) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  constexpr int kConnections = 8;
  constexpr int kMgetBatch = 8;
  std::printf("=== sharded server sweep (%llu ops/cell, %d connections) ===\n",
              static_cast<unsigned long long>(ops_per_cell), kConnections);
  std::printf("%-10s %9s %12s %9s %9s %9s\n", "op", "db_shards", "ops/sec",
              "p50(us)", "p99(us)", "p999(us)");
  for (int num_shards : {1, 2, 4, 8}) {
    MemEnv env;
    Options db_options;
    db_options.env = &env;
    db_options.background_threads = 2;
    std::unique_ptr<DB> db;
    Status s = ShardedDB::Open(db_options, "/bench-sharded", num_shards, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "sharded open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    ServerOptions server_options;
    server_options.port = 0;
    server_options.num_workers = 8;
    Server server(db.get(), server_options);
    s = server.Start();
    if (!s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }

    {
      ClientOptions options;
      options.port = server.port();
      Client client(options);
      const std::string value(kValueSize, 'v');
      for (uint64_t i = 0; i < key_space; i++) {
        if (!client.Put(Key(i), value).ok()) {
          std::fprintf(stderr, "preload failed\n");
          return 1;
        }
      }
      db->WaitForQuiescence();
    }

    auto emit = [&](const char* op, const CellResult& r) {
      std::printf("%-10s %9d %12.0f %9.1f %9.1f %9.1f\n", op, num_shards,
                  r.ops_per_sec, r.latency_us.Percentile(50),
                  r.latency_us.Percentile(99), r.latency_us.Percentile(99.9));
      std::printf(
          "{\"bench\":\"sharding\",\"op\":\"%s\",\"db_shards\":%d,"
          "\"connections\":%d,\"ops\":%llu,\"failed\":%llu,"
          "\"ops_per_sec\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
          "\"p999_us\":%.1f,\"cpus\":%d}\n",
          op, num_shards, kConnections,
          static_cast<unsigned long long>(r.ops),
          static_cast<unsigned long long>(r.failed), r.ops_per_sec,
          r.latency_us.Percentile(50), r.latency_us.Percentile(99),
          r.latency_us.Percentile(99.9), cpus);
      std::fflush(stdout);
    };
    const uint64_t per_conn =
        std::max<uint64_t>(1, ops_per_cell / kConnections);
    emit("put", RunCell(server.port(), kConnections, per_conn, key_space,
                        /*do_put=*/true));
    db->WaitForQuiescence();
    emit("get", RunCell(server.port(), kConnections, per_conn, key_space,
                        /*do_put=*/false));
    emit("mget", RunMgetCell(server.port(), kConnections, per_conn, key_space,
                             kMgetBatch));
    server.Stop();
  }
  return ExitCode();
}

// Looped-GET vs batched MGET over the same key distribution, cold and warm
// cache, 1KB values, one pass per engine.  Every cell reopens the DB (and
// server) over the persisted MemEnv files so its cache tiers start
// genuinely cold; warm cells then run one warming pass over a key slice
// sized to fit the block cache before measuring.  ops/ops_per_sec count
// KEYS for both modes, so the cells compare directly: the MGET win is
// batched dispatch plus coalesced vectored block I/O under the misses.
int RunMgetSweep(uint64_t ops_per_cell, uint64_t key_space) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  constexpr int kConnections = 4;
  constexpr int kBatch = 64;
  constexpr int kSweepValueSize = 1024;
  // Warm slice: ~warm_space data blocks must fit the cache with room to
  // spare (8MB cache below vs ~4MB of 1KB values).
  const uint64_t warm_space = std::min<uint64_t>(key_space, 4000);

  struct EngineCell {
    EngineType engine;
    AmtPolicy policy;
    const char* name;
  };
  const EngineCell engines[] = {
      {EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
      {EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
      {EngineType::kAmt, AmtPolicy::kIam, "iam"},
  };

  std::printf("=== looped GET vs MGET(%d) sweep (%llu keys/cell, 1KB values) ===\n",
              kBatch, static_cast<unsigned long long>(ops_per_cell));
  std::printf("%-8s %-12s %6s %12s %9s %9s %9s\n", "engine", "op", "cache",
              "keys/sec", "p50(us)", "p99(us)", "p999(us)");

  for (const EngineCell& e : engines) {
    MemEnv env;
    auto make_options = [&] {
      Options options;
      options.env = &env;
      options.engine = e.engine;
      options.amt.policy = e.policy;
      options.background_threads = 2;
      // Small enough that the cold passes stay device-bound over the
      // ~100MB data set, large enough to hold the whole warm slice.
      options.block_cache_capacity = 8ull << 20;
      return options;
    };

    {
      std::unique_ptr<DB> db;
      Status s = DB::Open(make_options(), "/bench-mget", &db);
      if (!s.ok()) {
        std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
        return 1;
      }
      const std::string value(kSweepValueSize, 'v');
      for (uint64_t i = 0; i < key_space; i++) {
        if (!db->Put(WriteOptions(), Key(i), value).ok()) {
          std::fprintf(stderr, "preload failed\n");
          return 1;
        }
      }
      db->FlushAll();
      db->WaitForQuiescence();
    }

    auto run_cell = [&](const char* op, const char* cache,
                        bool warm) -> bool {
      std::unique_ptr<DB> db;
      Status s = DB::Open(make_options(), "/bench-mget", &db);
      if (!s.ok()) {
        std::fprintf(stderr, "reopen failed: %s\n", s.ToString().c_str());
        return false;
      }
      ServerOptions server_options;
      server_options.port = 0;
      server_options.num_workers = 4;
      Server server(db.get(), server_options);
      if (!server.Start().ok()) {
        std::fprintf(stderr, "server start failed\n");
        return false;
      }
      const uint64_t space = warm ? warm_space : key_space;
      if (warm) {
        // One covering pass fills both cache tiers before measurement.
        RunMgetCell(server.port(), 1, space, space, kBatch);
      }
      const uint64_t per_conn =
          std::max<uint64_t>(1, ops_per_cell / kConnections);
      const bool mget = std::string(op) == "mget";
      CellResult r = mget ? RunMgetCell(server.port(), kConnections, per_conn,
                                        space, kBatch)
                          : RunCell(server.port(), kConnections, per_conn,
                                    space, /*do_put=*/false);
      std::printf("%-8s %-12s %6s %12.0f %9.1f %9.1f %9.1f\n", e.name, op,
                  cache, r.ops_per_sec, r.latency_us.Percentile(50),
                  r.latency_us.Percentile(99), r.latency_us.Percentile(99.9));
      std::printf(
          "{\"bench\":\"mget_sweep\",\"engine\":\"%s\",\"op\":\"%s\","
          "\"cache\":\"%s\",\"connections\":%d,\"batch\":%d,"
          "\"value_size\":%d,\"keys\":%llu,\"failed\":%llu,"
          "\"keys_per_sec\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
          "\"p999_us\":%.1f,\"cpus\":%d}\n",
          e.name, op, cache, kConnections, mget ? kBatch : 1, kSweepValueSize,
          static_cast<unsigned long long>(r.ops),
          static_cast<unsigned long long>(r.failed), r.ops_per_sec,
          r.latency_us.Percentile(50), r.latency_us.Percentile(99),
          r.latency_us.Percentile(99.9), cpus);
      std::fflush(stdout);
      server.Stop();
      return true;
    };

    for (const char* op : {"looped_get", "mget"}) {
      if (!run_cell(op, "cold", /*warm=*/false)) return 1;
      if (!run_cell(op, "warm", /*warm=*/true)) return 1;
    }
  }
  return ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv, 1.0);
  const uint64_t ops_per_cell = bench::Scaled(40000, scale);
  const uint64_t key_space = bench::Scaled(100000, scale);

  int db_shards = 0;
  bool shard_sweep = false;
  bool mget_sweep = false;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--db_shards=", 12) == 0) {
      db_shards = std::atoi(argv[i] + 12);
    } else if (std::strcmp(argv[i], "--shard_sweep") == 0) {
      shard_sweep = true;
    } else if (std::strcmp(argv[i], "--mget_sweep") == 0) {
      mget_sweep = true;
    }
  }
  if (shard_sweep) return RunShardSweep(ops_per_cell, key_space);
  if (mget_sweep) return RunMgetSweep(ops_per_cell, key_space);

  MemEnv env;
  Options db_options;
  db_options.env = &env;
  db_options.background_threads = 2;
  std::unique_ptr<DB> db;
  Status s = db_shards > 0
                 ? ShardedDB::Open(db_options, "/bench-server", db_shards, &db)
                 : DB::Open(db_options, "/bench-server", &db);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 8;
  Server server(db.get(), server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("=== server loopback throughput (real time, %llu ops/cell) ===\n",
              static_cast<unsigned long long>(ops_per_cell));
  const std::vector<int> connection_counts = {1, 4, 16};

  // Preload so GETs mostly hit; also warms the wire path.
  {
    ClientOptions options;
    options.port = server.port();
    Client client(options);
    const std::string value(kValueSize, 'v');
    for (uint64_t i = 0; i < key_space; i++) {
      if (!client.Put(Key(i), value).ok()) {
        std::fprintf(stderr, "preload failed\n");
        return 1;
      }
    }
    db->WaitForQuiescence();
  }

  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("%-14s %12s %6s %12s %9s %9s %9s\n", "op", "connections",
              "d/b", "ops/sec", "p50(us)", "p99(us)", "p999(us)");
  auto print_cell = [&](const char* bench, const char* op, int connections,
                        const char* extra_key, int extra_value,
                        const CellResult& r) {
    std::printf("%-14s %12d %6d %12.0f %9.1f %9.1f %9.1f\n", op, connections,
                extra_value, r.ops_per_sec, r.latency_us.Percentile(50),
                r.latency_us.Percentile(99), r.latency_us.Percentile(99.9));
    std::printf(
        "{\"bench\":\"%s\",\"op\":\"%s\",\"connections\":%d,"
        "\"%s\":%d,\"ops\":%llu,\"failed\":%llu,\"ops_per_sec\":%.1f,"
        "\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f,\"cpus\":%d}\n",
        bench, op, connections, extra_key, extra_value,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.failed), r.ops_per_sec,
        r.latency_us.Percentile(50), r.latency_us.Percentile(99),
        r.latency_us.Percentile(99.9), cpus);
  };

  for (const char* op : {"put", "get"}) {
    const bool do_put = std::string(op) == "put";
    for (int connections : connection_counts) {
      const uint64_t per_conn =
          std::max<uint64_t>(1, ops_per_cell / connections);
      CellResult r =
          RunCell(server.port(), connections, per_conn, key_space, do_put);
      print_cell("server_throughput", op, connections, "depth", 1, r);
      if (do_put) db->WaitForQuiescence();
    }
  }

  // The event-driven axes: on few cores raw ops/s moves little, but depth
  // amortizes the per-request round trip (this is where the reactor's
  // writev batching shows up in p99/p999 and ops/s).
  constexpr int kAsyncConnections = 16;
  for (int depth : {1, 8, 64}) {
    const uint64_t per_conn =
        std::max<uint64_t>(1, ops_per_cell / kAsyncConnections);
    CellResult r = RunPipelinedGetCell(server.port(), kAsyncConnections,
                                       per_conn, key_space, depth);
    print_cell("server_async", "pipelined_get", kAsyncConnections, "depth",
               depth, r);
  }
  for (int batch : {1, 8, 64}) {
    const uint64_t per_conn =
        std::max<uint64_t>(1, ops_per_cell / kAsyncConnections);
    CellResult r = RunMgetCell(server.port(), kAsyncConnections, per_conn,
                               key_space, batch);
    print_cell("server_async", "mget", kAsyncConnections, "batch", batch, r);
  }

  ServerStats stats = server.stats();
  std::printf(
      "{\"bench\":\"server_async\",\"op\":\"reactor_stats\",\"shards\":%d,"
      "\"writev_calls\":%llu,\"responses_written\":%llu,"
      "\"responses_per_writev\":%.2f,\"output_buffer_hwm\":%llu,"
      "\"backpressure_stalls\":%llu,\"cpus\":%d}\n",
      server.num_shards(), static_cast<unsigned long long>(stats.writev_calls),
      static_cast<unsigned long long>(stats.responses_written),
      stats.writev_calls > 0
          ? static_cast<double>(stats.responses_written) / stats.writev_calls
          : 0.0,
      static_cast<unsigned long long>(stats.output_buffer_hwm),
      static_cast<unsigned long long>(stats.backpressure_stalls), cpus);

  server.Stop();
  return ExitCode();
}
