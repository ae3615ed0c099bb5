// iamdb_server: serves one IamDB directory over the wire protocol
// (docs/PROTOCOL.md).
//
//   iamdb_server --db=/path/to/db [--port=4490] [--host=127.0.0.1]
//                [--engine=iam|lsa|leveled] [--threads=4] [--shards=N]
//                [--db_shards=N] [--bg_threads=N] [--subcompactions=N]
//                [--cache_mb=64] [--compression=none|columnar|lz]
//                [--compressed_cache_mb=N] [--sync_wal]
//
// --compression selects the per-block codec newly written tables use
// (existing tables keep their recorded codec); --compressed_cache_mb
// enables the compressed-block cache tier (0 = off).
//
// Memory is sized once at open: the memtable rotates at the node capacity
// and --cache_mb / --compressed_cache_mb fix the cache tiers (with
// --db_shards each shard gets an even share).
//
// --shards controls the network reactor; --db_shards partitions the
// database itself into N independent instances (ShardedDB).  A db dir
// that already carries a SHARDMAP manifest reopens sharded automatically.
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
// in-flight requests, flush the memtable, then exit.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <semaphore.h>
#include <string>

#include "core/db.h"
#include "env/env.h"
#include "server/server.h"
#include "shard/sharded_db.h"
#include "table/compressor.h"

namespace {

using namespace iamdb;

sem_t g_shutdown_sem;

void HandleSignal(int) { sem_post(&g_shutdown_sem); }

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --db=<dir> [--port=N] [--host=ADDR] "
               "[--engine=iam|lsa|leveled] [--threads=N] [--shards=N] "
               "[--db_shards=N] [--bg_threads=N] [--subcompactions=N] "
               "[--cache_mb=N] [--compression=none|columnar|lz] "
               "[--compressed_cache_mb=N] [--sync_wal]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dbdir;
  ServerOptions server_options;
  server_options.port = 4490;
  Options db_options;
  db_options.env = Env::Default();
  int bg_threads = 0;   // 0 = derive from the machine / worker count
  int db_shards = 0;    // 0 = single instance unless a SHARDMAP exists

  for (int i = 1; i < argc; i++) {
    std::string v;
    if (ParseFlag(argv[i], "db", &v)) {
      dbdir = v;
    } else if (ParseFlag(argv[i], "port", &v)) {
      server_options.port = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "host", &v)) {
      server_options.host = v;
    } else if (ParseFlag(argv[i], "threads", &v)) {
      server_options.num_workers = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "shards", &v)) {
      server_options.num_shards = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "db_shards", &v)) {
      db_shards = std::atoi(v.c_str());
      if (db_shards <= 0) {
        std::fprintf(stderr, "--db_shards must be positive\n");
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "bg_threads", &v)) {
      bg_threads = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "subcompactions", &v)) {
      db_options.max_subcompactions = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "cache_mb", &v)) {
      db_options.block_cache_capacity =
          static_cast<uint64_t>(std::atoll(v.c_str())) << 20;
    } else if (ParseFlag(argv[i], "compressed_cache_mb", &v)) {
      db_options.compressed_cache_capacity =
          static_cast<uint64_t>(std::atoll(v.c_str())) << 20;
    } else if (ParseFlag(argv[i], "compression", &v)) {
      if (!ParseCompressionType(v, &db_options.table.compression)) {
        std::fprintf(stderr, "unknown compression '%s'\n", v.c_str());
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "engine", &v)) {
      if (v == "iam") {
        db_options.engine = EngineType::kAmt;
        db_options.amt.policy = AmtPolicy::kIam;
      } else if (v == "lsa") {
        db_options.engine = EngineType::kAmt;
        db_options.amt.policy = AmtPolicy::kLsa;
      } else if (v == "leveled") {
        db_options.engine = EngineType::kLeveled;
      } else {
        std::fprintf(stderr, "unknown engine '%s'\n", v.c_str());
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--sync_wal") == 0) {
      db_options.sync_wal = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (dbdir.empty()) return Usage(argv[0]);
  // --bg_threads wins; otherwise take the larger of the hardware-derived
  // default and half the request workers.
  db_options.background_threads =
      bg_threads > 0 ? bg_threads
                     : std::max(db_options.background_threads,
                                std::max(1, server_options.num_workers / 2));

  std::unique_ptr<DB> db;
  Status s;
  if (db_shards > 0) {
    s = ShardedDB::Open(db_options, dbdir, db_shards, &db);
  } else if (db_options.env->FileExists(ShardMapFileName(dbdir))) {
    // Reopen an existing sharded database with its persisted shard count.
    s = ShardedDB::Open(db_options, dbdir, 0, &db);
  } else {
    s = DB::Open(db_options, dbdir, &db);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", dbdir.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (auto* sharded = dynamic_cast<ShardedDB*>(db.get());
      sharded != nullptr && sharded->shard_map().num_shards > 1) {
    std::printf("database partitioned into %u shards\n",
                sharded->shard_map().num_shards);
  }

  Server server(db.get(), server_options);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("iamdb_server serving %s on %s:%d (%d shards, %d workers)\n",
              dbdir.c_str(), server_options.host.c_str(), server.port(),
              server.num_shards(), server_options.num_workers);
  std::fflush(stdout);

  sem_init(&g_shutdown_sem, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown_sem) != 0 && errno == EINTR) {
  }

  std::printf("shutting down: draining connections...\n");
  server.Stop();
  std::printf("%s", server.StatsString().c_str());
  db->FlushAll();
  db.reset();
  std::printf("bye\n");
  return 0;
}
