// Read-amplification properties (paper Sec 5.3.2):
//  * point reads cost ~1 device seek regardless of engine — Bloom filters
//    skip the sequences without the target (~0.2% false positives at 14
//    bits/key);
//  * absent-key reads cost ~0 seeks;
//  * scans cannot use Blooms: LSA pays ~0.5t seeks per multi-sequence
//    node while IAM/LSM pay at most one per level;
//  * a written node is never read back to be opened: under a write-only
//    load every device read is a compaction input's node read, one per
//    input node and job.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <tuple>

#include "core/db.h"
#include "env/counting_env.h"
#include "env/mem_env.h"
#include "stats/io_stats.h"
#include "util/random.h"
#include "util/sync_point.h"

namespace iamdb {
namespace {

struct ReadAmpParam {
  EngineType engine;
  AmtPolicy policy;
  const char* name;
};

const ReadAmpParam kEngines[] = {
    {EngineType::kLeveled, AmtPolicy::kLsa, "leveled"},
    {EngineType::kAmt, AmtPolicy::kLsa, "lsa"},
    {EngineType::kAmt, AmtPolicy::kIam, "iam"},
};

std::string EngineName(const testing::TestParamInfo<ReadAmpParam>& info) {
  return info.param.name;
}

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

class ReadAmpTest : public testing::TestWithParam<ReadAmpParam> {
 protected:
  void SetUp() override {
    Options options;
    options.env = &env_;
    options.engine = GetParam().engine;
    options.amt.policy = GetParam().policy;
    options.node_capacity = 64 << 10;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    // Tiny cache: reads actually hit the "device".
    options.block_cache_capacity = 16 << 10;
    options.amt.memory_budget_bytes = 16 << 10;
    options.leveled.max_bytes_level1 = 256 << 10;
    options.leveled.target_file_size = 32 << 10;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());

    std::string value(100, 'v');
    Random64 rnd(1);
    for (int i = 0; i < 40000; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), Key(static_cast<int>(rnd.Next() % 60000)),
                   value)
              .ok());
      // Quiesce between memtable rotations (~500 puts apart), so every
      // flush lands on a fully drained tree and the final shape — and the
      // seek counts asserted below — is identical run to run.  With the
      // flush-priority scheduler the writer otherwise outruns merges by a
      // timing-dependent amount.
      if (i % 250 == 249) {
        ASSERT_TRUE(db_->WaitForQuiescence().ok());
      }
    }
    ASSERT_TRUE(db_->WaitForQuiescence().ok());
  }

  MemEnv env_;
  std::unique_ptr<DB> db_;
};

TEST_P(ReadAmpTest, PointReadsCostAboutOneSeek) {
  Random64 rnd(7);
  uint64_t seeks = 0, hits = 0;
  for (int i = 0; i < 600; i++) {
    std::string key = Key(static_cast<int>(rnd.Next() % 60000));
    OpIoScope scope;
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.ok()) {
      hits++;
      seeks += scope.context().seeks;
    }
  }
  ASSERT_GT(hits, 100u);
  double seeks_per_hit = static_cast<double>(seeks) / hits;
  // Each found read: one data-block seek (bloom skips other sequences /
  // levels).  Tiny slack for bloom false positives and boundary blocks.
  EXPECT_LT(seeks_per_hit, 1.5) << GetParam().name;
  EXPECT_GE(seeks_per_hit, 0.5) << GetParam().name;  // cache is tiny
}

TEST_P(ReadAmpTest, AbsentReadsCostNearZeroSeeks) {
  uint64_t seeks = 0;
  const int probes = 600;
  for (int i = 0; i < probes; i++) {
    OpIoScope scope;
    std::string value;
    Status s = db_->Get(ReadOptions(), "absent" + std::to_string(i), &value);
    ASSERT_TRUE(s.IsNotFound());
    seeks += scope.context().seeks;
  }
  // 14-bit blooms: ~0.2% false-positive rate per sequence.
  EXPECT_LT(static_cast<double>(seeks) / probes, 0.2) << GetParam().name;
}

TEST_P(ReadAmpTest, ScanSeeksBoundedPerSequence) {
  Random64 rnd(9);
  uint64_t seeks = 0;
  const int scans = 100;
  for (int i = 0; i < scans; i++) {
    OpIoScope scope;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(Key(static_cast<int>(rnd.Next() % 60000)));
    for (int j = 0; j < 20 && iter->Valid(); j++) iter->Next();
    seeks += scope.context().seeks;
  }
  double per_scan = static_cast<double>(seeks) / scans;
  if (GetParam().policy == AmtPolicy::kLsa &&
      GetParam().engine == EngineType::kAmt) {
    // Multi-sequence nodes: every sequence of every touched node seeks.
    EXPECT_GT(per_scan, 2.0) << "LSA scans should pay for sequences";
  } else {
    // One seek per level-ish for short scans.
    EXPECT_LT(per_scan, 16.0) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ReadAmpTest, testing::ValuesIn(kEngines),
                         EngineName);

#ifdef IAMDB_SYNC_POINTS
// Options of the write-only loads below, with one background thread.
Options WriteOnlyOptions(const ReadAmpParam& engine, Env* env) {
  Options options;
  options.env = env;
  options.engine = engine.engine;
  options.amt.policy = engine.policy;
  options.background_threads = 1;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.amt.memory_budget_bytes = 16 << 10;
  options.leveled.max_bytes_level1 = 256 << 10;
  options.leveled.target_file_size = 32 << 10;
  return options;
}

// 20,000 overwrites of 8,000 keys, then FlushAll and WaitForQuiescence:
// every job the load causes has finished.  *model gets the last value of
// each key.
void WriteOnlyLoad(DB* db, std::map<std::string, std::string>* model) {
  Random64 rnd(7);
  for (int i = 0; i < 20000; i++) {
    const std::string key = Key(static_cast<int>(rnd.Next() % 8000));
    const std::string value = "v" + std::to_string(i) + std::string(80, 'x');
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    (*model)[key] = value;
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
}

constexpr char kNodeRead[] = "MSTableReader::ReadNode:BeforeRead";
#endif  // IAMDB_SYNC_POINTS

// Starts from an empty DB: the load under test is the whole history.
using WrittenNodeReadTest = testing::TestWithParam<ReadAmpParam>;

// Every node a flush, merge, split or append writes is published with the
// reader its writer handed out, so a write-only load reads the device only
// to read compaction inputs.  A reopen then opens the recovered nodes
// lazily, from the file.
TEST_P(WrittenNodeReadTest, WrittenNodesAreNeverReadBackToOpen) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "needs IAMDB_SYNC_POINTS";
#else
  MemEnv mem;
  IoStats io;
  CountingEnv counting(&mem, &io);
  std::unique_ptr<DB> db;
  const Options options = WriteOnlyOptions(GetParam(), &counting);
  ASSERT_TRUE(DB::Open(options, "/wdb", &db).ok());

  SyncPoint::Instance()->Reset();
  SyncPoint::Instance()->EnableProcessing();
  const IoStatsSnapshot before = io.Snapshot();
  std::map<std::string, std::string> model;
  WriteOnlyLoad(db.get(), &model);
  const uint64_t read_ops = (io.Snapshot() - before).read_ops;
  const uint64_t node_reads = SyncPoint::Instance()->HitCount(kNodeRead);
  SyncPoint::Instance()->Reset();
  EXPECT_GT(node_reads, 0u) << "the load should compact";
  EXPECT_EQ(node_reads, read_ops) << GetParam().name;

  db.reset();
  ASSERT_TRUE(DB::Open(options, "/wdb", &db).ok());
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got) << key;
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(Engines, WrittenNodeReadTest,
                         testing::ValuesIn(kEngines), EngineName);

// Parameters: the engine, and max_subcompactions, which is also the number
// of background threads: with one, a job's shards run one after another
// on its own thread; with four, they run on pool threads at once.
class NodeReadOnceTest
    : public testing::TestWithParam<std::tuple<ReadAmpParam, int>> {};

// A job reads each of its input nodes once, before it fans out: the
// shards of a flush-down share the parent's image, and a leveled job's
// shards share its upper-level inputs.  Every node version (file number,
// region_start) is consumed by one job, since the job retires it and jobs
// claim disjoint nodes, so over a write-only load with no failed job every
// device read is a node read and no node version is read twice.
TEST_P(NodeReadOnceTest, EachInputNodeIsReadOncePerJob) {
#ifndef IAMDB_SYNC_POINTS
  GTEST_SKIP() << "needs IAMDB_SYNC_POINTS";
#else
  const ReadAmpParam& engine = std::get<0>(GetParam());
  const int subcompactions = std::get<1>(GetParam());
  MemEnv mem;
  IoStats io;
  CountingEnv counting(&mem, &io);
  std::unique_ptr<DB> db;
  Options options = WriteOnlyOptions(engine, &counting);
  options.max_subcompactions = subcompactions;
  options.background_threads = subcompactions;
  ASSERT_TRUE(DB::Open(options, "/odb", &db).ok());

  SyncPoint* sp = SyncPoint::Instance();
  sp->Reset();
  std::mutex mu;
  std::map<std::pair<uint64_t, uint64_t>, int> reads;  // guarded by mu
  sp->SetCallback(kNodeRead, [&](void* arg) {
    std::lock_guard<std::mutex> l(mu);
    reads[*static_cast<std::pair<uint64_t, uint64_t>*>(arg)]++;
  });
  sp->EnableProcessing();
  const IoStatsSnapshot before = io.Snapshot();
  std::map<std::string, std::string> model;
  WriteOnlyLoad(db.get(), &model);
  const uint64_t read_ops = (io.Snapshot() - before).read_ops;
  const uint64_t node_reads = sp->HitCount(kNodeRead);
  sp->Reset();

  EXPECT_GT(node_reads, 0u) << "the load should compact";
  EXPECT_EQ(node_reads, read_ops);
  for (const auto& [node, count] : reads) {
    EXPECT_EQ(1, count) << "file " << node.first << " region_start "
                        << node.second;
  }
  if (subcompactions > 1) {
    EXPECT_GT(db->GetStats().subcompactions_run, 0u) << "no job fanned out";
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NodeReadOnceTest,
    testing::Combine(testing::ValuesIn(kEngines), testing::Values(1, 4)),
    [](const testing::TestParamInfo<std::tuple<ReadAmpParam, int>>& info) {
      return std::string(std::get<0>(info.param).name) + "_subcompactions" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace iamdb
