// Crash-consistency harness: drives every engine (leveled, LSA, IAM)
// through seeded op histories, simulates a crash at each planted sync
// point (FaultInjectionEnv deactivates, the unsynced tail is torn away),
// reopens, and model-checks the durability contract:
//
//   * the recovered state is apply(history[0..j)) for some j — whole
//     batches only, no holes, no partial resurrection;
//   * j covers every sync-acknowledged write;
//   * forward and reverse scans agree with each other and the model;
//   * the store is fully usable (writes + invariants) after recovery.
//
// Every cycle is seed-exact: failures print the seed and IAMDB_TEST_SEED
// replays it (docs/TESTING.md).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/fault_injection_env.h"
#include "env/mem_env.h"
#include "shard/shard_map.h"
#include "shard/sharded_db.h"
#include "table/iterator.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace iamdb {
namespace {

constexpr int kSeedsPerPoint = 20;
constexpr int kSeedsPerOpenPoint = 6;

struct EngineConfig {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

constexpr EngineConfig kEngines[] = {
    {EngineType::kLeveled, AmtPolicy::kLsa, "Leveled"},
    {EngineType::kAmt, AmtPolicy::kLsa, "Lsa"},
    {EngineType::kAmt, AmtPolicy::kIam, "Iam"},
};

// A crash trigger: the sync point to arm plus a spread for the armed hit
// index (points that fire often get a wide spread so crashes land all
// through the run; rare points a narrow one so they actually trigger).
struct CrashPoint {
  const char* point;
  int hit_spread;
};

constexpr CrashPoint kRuntimePoints[] = {
    {"DBImpl::Write:BeforeWalAppend", 60},
    {"DBImpl::Write:AfterWalAppend", 60},
    {"DBImpl::Write:AfterWalSync", 6},
    {"DBImpl::SwitchMemTable:AfterOldWalSeal", 3},
    {"DBImpl::SwitchMemTable:AfterNewWal", 3},
    {"DBImpl::LogEdit:BeforeManifestAppend", 3},
    {"DBImpl::LogEdit:AfterManifestAppend", 3},
    {"DBImpl::ImmFlushed:BeforeWalRemove", 2},
    {"ManifestWriter::Append:AfterRecord", 3},
};

// Points that only fire inside DB::Open (the manifest rewrite): the crash
// is injected into a reopen instead of the op run.
constexpr CrashPoint kOpenPoints[] = {
    {"DBImpl::WriteSnapshotManifest:BeforeCreate", 1},
    {"ManifestWriter::Create:AfterBase", 1},
    {"ManifestWriter::Create:AfterCurrent", 1},
    {"DBImpl::RemoveObsoleteFiles:Start", 1},
};

// One logical operation: a WriteBatch of puts (value nullopt = delete).
struct Op {
  std::vector<std::pair<std::string, std::optional<std::string>>> writes;
  bool sync = false;
};

using Model = std::map<std::string, std::string>;

void ApplyOp(const Op& op, Model* model) {
  for (const auto& [key, value] : op.writes) {
    if (value.has_value()) {
      (*model)[key] = *value;
    } else {
      model->erase(key);
    }
  }
}

std::string Key(uint64_t i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%04llu", static_cast<unsigned long long>(i));
  return buf;
}

// Values embed the op serial so distinct histories produce distinct
// states and the prefix search cannot be fooled by collisions.
Op MakeOp(Random64* rnd, int serial) {
  Op op;
  const uint32_t kind = static_cast<uint32_t>(rnd->Next() % 100);
  const int width = kind < 10 ? 3 : 1;  // 10% multi-key batches
  for (int w = 0; w < width; w++) {
    std::string key = Key(rnd->Next() % 120);
    if (kind >= 10 && kind < 25) {
      op.writes.emplace_back(std::move(key), std::nullopt);
    } else {
      size_t len = 20 + rnd->Next() % 90;
      std::string value = std::string("v")
                              .append(std::to_string(serial))
                              .append(".")
                              .append(std::to_string(w))
                              .append("-");
      value.resize(len, 'x');
      op.writes.emplace_back(std::move(key), std::move(value));
    }
  }
  op.sync = (rnd->Next() % 8) == 0;
  return op;
}

Options MakeOptions(const EngineConfig& cfg, Env* env) {
  Options options;
  options.env = env;
  options.engine = cfg.engine;
  options.amt.policy = cfg.policy;
  options.node_capacity = 4 << 10;  // minimum: flush every ~40 small ops
  options.table.block_size = 256;
  options.amt.fanout = 3;
  options.leveled.max_bytes_level1 = 16 << 10;
  options.leveled.target_file_size = 4 << 10;
  options.leveled.l0_compaction_trigger = 2;
  options.block_cache_capacity = 1 << 20;
  options.background_threads = 1;
  // IAMDB_TEST_COMPRESSION reruns the whole crash matrix with a block
  // codec enabled; recovery must be byte-exact either way.
  options.table.compression = test::TestCompression();
  return options;
}

// Drives `count` ops against `db`, appending to *history.  Stops early on
// the first failed op (the simulated crash surfacing).  Returns the index
// of the last sync-acknowledged op, carried in/out so multiple phases can
// share one history.
void DriveOps(DB* db, Random64* rnd, int count, std::vector<Op>* history,
              int* last_acked_sync) {
  for (int i = 0; i < count; i++) {
    Op op = MakeOp(rnd, static_cast<int>(history->size()));
    WriteBatch batch;
    for (const auto& [key, value] : op.writes) {
      if (value.has_value()) {
        batch.Put(key, *value);
      } else {
        batch.Delete(key);
      }
    }
    WriteOptions wo;
    wo.sync = op.sync;
    Status s = db->Write(wo, &batch);
    history->push_back(std::move(op));
    if (!s.ok()) break;  // crash surfaced; the op is "maybe applied"
    if (history->back().sync) {
      *last_acked_sync = static_cast<int>(history->size()) - 1;
    }
  }
}

// Reopens the store and asserts the durability contract against `history`.
void VerifyRecovered(const Options& options, const std::vector<Op>& history,
                     int last_acked_sync) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/db", &db);
  ASSERT_TRUE(s.ok()) << "recovery failed: " << s.ToString();

  Model dump;
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dump[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();

  // Reverse scan agrees with the forward scan.
  Model reverse_dump;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    reverse_dump[iter->key().ToString()] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  ASSERT_EQ(dump, reverse_dump);

  // The recovered state must equal apply(history[0..j)) for some j
  // (whole batches, no holes), with j covering every acked sync write.
  Model model;
  int matched = dump.empty() ? 0 : -1;
  for (size_t j = 0; j < history.size(); j++) {
    ApplyOp(history[j], &model);
    if (dump == model) matched = static_cast<int>(j) + 1;
  }
  ASSERT_GE(matched, 0)
      << "recovered state is not a prefix of the op history ("
      << history.size() << " ops, " << dump.size() << " keys recovered)";
  ASSERT_GE(matched, last_acked_sync + 1)
      << "sync-acknowledged op " << last_acked_sync
      << " lost: recovered state matches only the first " << matched
      << " ops";

  // Point reads agree with the scan.
  Model prefix_model;
  for (int j = 0; j < matched; j++) ApplyOp(history[j], &prefix_model);
  int probes = 0;
  for (const auto& [key, value] : prefix_model) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    ASSERT_EQ(value, got) << key;
    if (++probes >= 10) break;
  }
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "zz-absent", &got).IsNotFound());

  // The store must be fully usable after recovery.
  Random64 rnd(matched + 1);
  Model post = dump;
  for (int i = 0; i < 30; i++) {
    Op op = MakeOp(&rnd, 100000 + i);
    WriteBatch batch;
    for (const auto& [key, value] : op.writes) {
      if (value.has_value()) {
        batch.Put(key, *value);
      } else {
        batch.Delete(key);
      }
    }
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    ApplyOp(op, &post);
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->CheckInvariants(true).ok());
  Model final_dump;
  std::unique_ptr<Iterator> final_iter(db->NewIterator(ReadOptions()));
  for (final_iter->SeekToFirst(); final_iter->Valid(); final_iter->Next()) {
    final_dump[final_iter->key().ToString()] =
        final_iter->value().ToString();
  }
  ASSERT_TRUE(final_iter->status().ok());
  ASSERT_EQ(post, final_dump);
}

// Tears the "disk" down to what a crash would leave, seed-varied between
// exact truncation, random tear points, and lost directory entries.
void SimulateDiskAfterCrash(FaultInjectionEnv* fault, uint64_t seed) {
  Random64 rnd(seed ^ 0x5eedf00dull);
  switch (rnd.Next() % 3) {
    case 0:
      ASSERT_TRUE(fault->DropUnsyncedFileData().ok());
      break;
    case 1: {
      Random64 tear(seed ^ 0x7ea4ull);
      ASSERT_TRUE(fault->DropRandomUnsyncedFileData(&tear).ok());
      break;
    }
    default:
      ASSERT_TRUE(fault->DeleteFilesCreatedAfterLastDirSync().ok());
      ASSERT_TRUE(fault->DropUnsyncedFileData().ok());
      break;
  }
  fault->Heal();
}

#ifdef IAMDB_SYNC_POINTS
// One runtime-crash cycle: open, arm the point, drive ops until the crash
// surfaces (or the op budget ends), tear the disk, verify recovery.
// Accumulates the point's hit count into *total_hits.
void RunRuntimeCrashCycle(const EngineConfig& cfg, const CrashPoint& pt,
                          uint64_t seed, uint64_t* total_hits) {
  SCOPED_TRACE(test::SeedTrace(seed));
  SyncPoint::Instance()->Reset();

  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  Options options = MakeOptions(cfg, &fault);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  fault.MarkDirSynced();  // the freshly opened directory is durable

  Random64 rnd(seed * 2654435761ull + 17);
  const int arm_hit =
      1 + static_cast<int>(rnd.Next() % static_cast<uint64_t>(pt.hit_spread));
  auto remaining = std::make_shared<std::atomic<int>>(arm_hit);
  FaultInjectionEnv* fault_ptr = &fault;
  SyncPoint::Instance()->SetCallback(
      pt.point, [fault_ptr, remaining](void*) {
        if (remaining->fetch_sub(1) == 1) {
          fault_ptr->SetFilesystemActive(false);
        }
      });
  SyncPoint::Instance()->EnableProcessing();

  std::vector<Op> history;
  int last_acked_sync = -1;
  DriveOps(db.get(), &rnd, 120, &history, &last_acked_sync);

  *total_hits += SyncPoint::Instance()->HitCount(pt.point);
  SyncPoint::Instance()->Reset();
  db.reset();  // the "process" dies; close never syncs anything

  SimulateDiskAfterCrash(&fault, seed);
  VerifyRecovered(options, history, last_acked_sync);
}

// One open-crash cycle: run ops crash-free, then inject the crash into a
// reopen (the manifest-rewrite path), then verify a third open recovers.
void RunOpenCrashCycle(const EngineConfig& cfg, const CrashPoint& pt,
                       uint64_t seed) {
  SCOPED_TRACE(test::SeedTrace(seed));
  SyncPoint::Instance()->Reset();

  MemEnv mem;
  FaultInjectionEnv fault(&mem);
  Options options = MakeOptions(cfg, &fault);

  std::vector<Op> history;
  int last_acked_sync = -1;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    Random64 rnd(seed * 0x9e3779b9ull + 3);
    DriveOps(db.get(), &rnd, 80, &history, &last_acked_sync);
  }

  auto remaining = std::make_shared<std::atomic<int>>(1);
  FaultInjectionEnv* fault_ptr = &fault;
  SyncPoint::Instance()->SetCallback(
      pt.point, [fault_ptr, remaining](void*) {
        if (remaining->fetch_sub(1) == 1) {
          fault_ptr->SetFilesystemActive(false);
        }
      });
  SyncPoint::Instance()->EnableProcessing();
  {
    // This open crashes partway; it may fail or limp through — both are
    // legitimate outcomes, the contract only constrains the next open.
    std::unique_ptr<DB> crashed;
    DB::Open(options, "/db", &crashed);
  }
  SyncPoint::Instance()->Reset();

  ASSERT_TRUE(fault.DropUnsyncedFileData().ok());
  fault.Heal();
  VerifyRecovered(options, history, last_acked_sync);
}
#endif  // IAMDB_SYNC_POINTS

// ---------------------------------------------------------------------------
// Parameterization: engine x crash point.

struct CrashParam {
  EngineConfig cfg;
  CrashPoint pt;
  bool open_time;
};

std::string ParamName(const testing::TestParamInfo<CrashParam>& info) {
  std::string name = info.param.cfg.name;
  name += '_';
  for (const char* p = info.param.pt.point; *p != '\0'; p++) {
    if (std::isalnum(static_cast<unsigned char>(*p))) {
      name += *p;
    } else if (!name.empty() && name.back() != '_') {
      name += '_';
    }
  }
  return name;
}

std::vector<CrashParam> AllParams(bool open_time) {
  std::vector<CrashParam> params;
  for (const auto& cfg : kEngines) {
    if (open_time) {
      for (const auto& pt : kOpenPoints) params.push_back({cfg, pt, true});
    } else {
      for (const auto& pt : kRuntimePoints) params.push_back({cfg, pt, false});
    }
  }
  return params;
}

class CrashPointTest : public testing::TestWithParam<CrashParam> {};

TEST_P(CrashPointTest, RecoversToConsistentPrefix) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const CrashParam& param = GetParam();
  uint64_t override_seed = 0;
  uint64_t total_hits = 0;
  if (test::SeedOverridden(&override_seed)) {
    RunRuntimeCrashCycle(param.cfg, param.pt, override_seed, &total_hits);
    return;
  }
  for (uint64_t seed = 0; seed < kSeedsPerPoint; seed++) {
    RunRuntimeCrashCycle(param.cfg, param.pt, seed, &total_hits);
    if (HasFatalFailure()) return;
  }
  // A point that never fired means the hook moved or died: fail loudly
  // rather than silently losing coverage.
  EXPECT_GT(total_hits, 0u) << param.pt.point << " never fired";
#endif
}

class OpenCrashPointTest : public testing::TestWithParam<CrashParam> {};

TEST_P(OpenCrashPointTest, RecoversAfterCrashDuringOpen) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "sync points compiled out (build with -DIAMDB_SYNC_POINTS=ON)";
#else
  const CrashParam& param = GetParam();
  uint64_t override_seed = 0;
  if (test::SeedOverridden(&override_seed)) {
    RunOpenCrashCycle(param.cfg, param.pt, override_seed);
    return;
  }
  for (uint64_t seed = 0; seed < kSeedsPerOpenPoint; seed++) {
    RunOpenCrashCycle(param.cfg, param.pt, seed);
    if (HasFatalFailure()) return;
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(Points, CrashPointTest,
                         testing::ValuesIn(AllParams(false)), ParamName);
INSTANTIATE_TEST_SUITE_P(Points, OpenCrashPointTest,
                         testing::ValuesIn(AllParams(true)), ParamName);

// ---------------------------------------------------------------------------
// Sync-point-free crash harness: deactivates the filesystem between two
// seeded op counts instead of at a named point, so this coverage survives
// builds with the hooks compiled out (plain Release).

class EngineCrashTest : public testing::TestWithParam<int> {};

TEST_P(EngineCrashTest, CrashAtSeededOpIndex) {
  const EngineConfig& cfg = kEngines[GetParam()];
  uint64_t override_seed = 0;
  const bool overridden = test::SeedOverridden(&override_seed);
  for (uint64_t seed = 0; seed < (overridden ? 1 : kSeedsPerPoint); seed++) {
    const uint64_t effective = overridden ? override_seed : seed;
    SCOPED_TRACE(test::SeedTrace(effective));
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    Options options = MakeOptions(cfg, &fault);

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    fault.MarkDirSynced();

    Random64 rnd(effective * 31 + 7);
    std::vector<Op> history;
    int last_acked_sync = -1;
    DriveOps(db.get(), &rnd, 20 + rnd.Next() % 100, &history,
             &last_acked_sync);
    fault.SetFilesystemActive(false);  // crash between two ops
    DriveOps(db.get(), &rnd, 10, &history, &last_acked_sync);
    db.reset();

    SimulateDiskAfterCrash(&fault, effective);
    VerifyRecovered(options, history, last_acked_sync);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineCrashTest, testing::Values(0, 1, 2),
                         [](const testing::TestParamInfo<int>& info) {
                           return kEngines[info.param].name;
                         });

// ---------------------------------------------------------------------------
// Sharded crash consistency.  ShardedDB's durability contract is per shard:
// each shard recovers to a consistent prefix of ITS projection of the
// global op history (a cross-shard batch may survive on some shards and
// not others — documented in docs/SHARDING.md).  A sync ack fsyncs only
// the WALs of the shards that op touched, so the acked-coverage floor is
// per shard: the latest acked sync op that wrote to shard S pins all of
// S's earlier writes, while shards the sync never touched promise
// nothing.  Sync-point-free like EngineCrashTest so the coverage survives
// plain Release builds.

constexpr int kCrashShards = 3;

void VerifyShardedRecovered(const Options& options,
                            const std::vector<Op>& history,
                            int last_acked_sync) {
  std::unique_ptr<DB> db;
  Status s = ShardedDB::Open(options, "/db", 0, &db);
  ASSERT_TRUE(s.ok()) << "sharded recovery failed: " << s.ToString();
  auto* sharded = static_cast<ShardedDB*>(db.get());
  ASSERT_EQ(sharded->shard_map().num_shards,
            static_cast<uint32_t>(kCrashShards));

  // A sync ack only fsyncs the WALs of the shards the op wrote to, so each
  // shard's guaranteed prefix ends at the latest acked sync op touching it.
  int acked_floor[kCrashShards];
  for (int shard = 0; shard < kCrashShards; shard++) acked_floor[shard] = -1;
  for (int j = 0; j <= last_acked_sync; j++) {
    if (!history[j].sync) continue;
    for (const auto& [key, value] : history[j].writes) {
      acked_floor[ShardOf(key, kCrashShards)] = j;
    }
  }

  Model union_of_shards;
  for (int shard = 0; shard < kCrashShards; shard++) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    Model dump;
    std::unique_ptr<Iterator> iter(
        sharded->shard(shard)->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ASSERT_EQ(ShardOf(iter->key(), kCrashShards),
                static_cast<uint32_t>(shard));
      dump[iter->key().ToString()] = iter->value().ToString();
      union_of_shards[iter->key().ToString()] = iter->value().ToString();
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();

    // Replay this shard's projection of the history; the recovered shard
    // state must equal some prefix of it, covering every acked op.
    Model model;
    int matched = dump.empty() ? 0 : -1;
    for (size_t j = 0; j < history.size(); j++) {
      for (const auto& [key, value] : history[j].writes) {
        if (ShardOf(key, kCrashShards) != static_cast<uint32_t>(shard)) {
          continue;
        }
        if (value.has_value()) {
          model[key] = *value;
        } else {
          model.erase(key);
        }
      }
      if (dump == model) matched = static_cast<int>(j) + 1;
    }
    ASSERT_GE(matched, 0)
        << "shard state is not a prefix of its projected history ("
        << dump.size() << " keys recovered)";
    ASSERT_GE(matched, acked_floor[shard] + 1)
        << "sync-acknowledged op " << acked_floor[shard]
        << " lost on this shard: covers only the first " << matched
        << " ops";
  }

  // The merged view is exactly the union of the shard views (shards
  // partition the keyspace, so the union has no conflicts to resolve).
  Model merged;
  std::unique_ptr<Iterator> all(db->NewIterator(ReadOptions()));
  for (all->SeekToFirst(); all->Valid(); all->Next()) {
    merged[all->key().ToString()] = all->value().ToString();
  }
  ASSERT_TRUE(all->status().ok());
  ASSERT_EQ(merged, union_of_shards);

  // Usable after recovery: cross-shard batches land, invariants hold.
  Random64 rnd(42);
  Model post = merged;
  for (int i = 0; i < 30; i++) {
    Op op = MakeOp(&rnd, 200000 + i);
    WriteBatch batch;
    for (const auto& [key, value] : op.writes) {
      if (value.has_value()) {
        batch.Put(key, *value);
      } else {
        batch.Delete(key);
      }
    }
    ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
    ApplyOp(op, &post);
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->CheckInvariants(true).ok());
  Model final_dump;
  std::unique_ptr<Iterator> final_iter(db->NewIterator(ReadOptions()));
  for (final_iter->SeekToFirst(); final_iter->Valid(); final_iter->Next()) {
    final_dump[final_iter->key().ToString()] = final_iter->value().ToString();
  }
  ASSERT_TRUE(final_iter->status().ok());
  ASSERT_EQ(post, final_dump);
}

class ShardedCrashTest : public testing::TestWithParam<int> {};

TEST_P(ShardedCrashTest, PerShardPrefixRecovery) {
  const EngineConfig& cfg = kEngines[GetParam()];
  uint64_t override_seed = 0;
  const bool overridden = test::SeedOverridden(&override_seed);
  for (uint64_t seed = 0; seed < (overridden ? 1 : kSeedsPerPoint); seed++) {
    const uint64_t effective = overridden ? override_seed : seed;
    SCOPED_TRACE(test::SeedTrace(effective));
    MemEnv mem;
    FaultInjectionEnv fault(&mem);
    Options options = MakeOptions(cfg, &fault);

    std::unique_ptr<DB> db;
    ASSERT_TRUE(ShardedDB::Open(options, "/db", kCrashShards, &db).ok());
    fault.MarkDirSynced();

    Random64 rnd(effective * 131 + 9);
    std::vector<Op> history;
    int last_acked_sync = -1;
    DriveOps(db.get(), &rnd, 20 + rnd.Next() % 100, &history,
             &last_acked_sync);
    fault.SetFilesystemActive(false);  // crash between two ops
    DriveOps(db.get(), &rnd, 10, &history, &last_acked_sync);
    db.reset();

    SimulateDiskAfterCrash(&fault, effective);
    VerifyShardedRecovered(options, history, last_acked_sync);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ShardedCrashTest, testing::Values(0, 1, 2),
                         [](const testing::TestParamInfo<int>& info) {
                           return kEngines[info.param].name;
                         });

}  // namespace
}  // namespace iamdb
