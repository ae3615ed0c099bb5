// AMT-engine-specific tests: the (m,k) tuner, structural invariants under
// load, sequential-load move optimization, write-amplification ordering
// between policies, and the FLSM-emulation mode (paper Sec 6.8).
#include <gtest/gtest.h>

#include "core/amt/amt_tuner.h"
#include "core/db.h"
#include "env/mem_env.h"
#include "util/random.h"

namespace iamdb {
namespace {

// ---------------------------------------------------------------------------
// Tuner unit tests (paper Eq. 1-2)

TEST(AmtTunerTest, EmptyTreeDefaultsToAppendEverything) {
  MixedLevelChoice c = ChooseMixedLevel({}, 10, 3, 1 << 20);
  EXPECT_EQ(1, c.m);
  EXPECT_EQ(3, c.k);
}

TEST(AmtTunerTest, HugeBudgetGoesFullLsa) {
  // Everything fits in memory: m = n+1 (no merging anywhere).
  std::vector<uint64_t> levels = {10 << 20, 100 << 20, 1000 << 20};
  MixedLevelChoice c = ChooseMixedLevel(levels, 10, 3, 10ull << 30);
  EXPECT_EQ(4, c.m);
  EXPECT_EQ(3, c.k);
}

TEST(AmtTunerTest, TinyBudgetDegeneratesToMergeEverywhere) {
  std::vector<uint64_t> levels = {10 << 20, 100 << 20};
  MixedLevelChoice c = ChooseMixedLevel(levels, 10, 3, 0);
  EXPECT_EQ(1, c.m);
  EXPECT_EQ(1, c.k);
}

TEST(AmtTunerTest, PaperShapedConfiguration) {
  // Scaled version of the paper's 1TB data / 64GB memory: levels
  // 10, 100, 1000, 10000 units with budget 640 units.
  // m=3: D1+D2 = 110 <= 640 and S(3,k) = 1000 (k-1)/10.
  //   k=3 -> 110+200 = 310 <= 640: accepted.
  // m=4 would need D1+D2+D3 = 1110 > 640: rejected.
  std::vector<uint64_t> levels = {10, 100, 1000, 10000};
  MixedLevelChoice c = ChooseMixedLevel(levels, 10, 3, 640);
  EXPECT_EQ(3, c.m);
  EXPECT_EQ(3, c.k);
}

TEST(AmtTunerTest, KShrinksBeforeMMovesUp) {
  // m=2 with k=3 needs 10 + 100*2/10 = 30; budget 25 forces k=2
  // (10 + 10 = 20 <= 25).
  std::vector<uint64_t> levels = {10, 100};
  MixedLevelChoice c = ChooseMixedLevel(levels, 10, 3, 25);
  EXPECT_EQ(2, c.m);
  EXPECT_EQ(2, c.k);
}

TEST(AmtTunerTest, EqualityBoundaryAccepted) {
  // Exactly equal to the budget satisfies Eq. 2 (<=).
  std::vector<uint64_t> levels = {10, 100};
  MixedLevelChoice c = ChooseMixedLevel(levels, 10, 3, 30);
  EXPECT_EQ(2, c.m);
  EXPECT_EQ(3, c.k);
}

TEST(AmtTunerTest, LargerBudgetNeverLowersMK) {
  std::vector<uint64_t> levels = {50, 500, 5000};
  MixedLevelChoice prev{0, 0};
  for (uint64_t budget = 0; budget < 12000; budget += 250) {
    MixedLevelChoice c = ChooseMixedLevel(levels, 10, 4, budget);
    // (m, k) is monotone in the budget.
    EXPECT_GE(std::make_pair(c.m, c.k), std::make_pair(prev.m, prev.k))
        << "budget " << budget;
    prev = c;
  }
}

// ---------------------------------------------------------------------------
// Engine behaviour

class AmtEngineTest : public testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.env = &env_;
    options.engine = EngineType::kAmt;
    options.node_capacity = 32 << 10;
    options.block_cache_capacity = 1 << 20;
    options.table.block_size = 1024;
    options.amt.fanout = 4;
    return options;
  }

  std::string Key(int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  // Loads `n` records with 100-byte values; returns final stats.
  DbStats Load(DB* db, int n, bool sequential, uint32_t seed = 7) {
    Random64 rnd(seed);
    std::string value(100, 'v');
    for (int i = 0; i < n; i++) {
      uint64_t k = sequential ? static_cast<uint64_t>(i) : rnd.Next() % 1000000;
      EXPECT_TRUE(db->Put(WriteOptions(), Key(static_cast<int>(k)), value).ok());
    }
    EXPECT_TRUE(db->WaitForQuiescence().ok());
    return db->GetStats();
  }

  MemEnv env_;
};

TEST_F(AmtEngineTest, SequentialLoadIsMoveOnly) {
  Options options = BaseOptions();
  options.amt.policy = AmtPolicy::kLsa;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  DbStats stats = Load(db.get(), 40000, /*sequential=*/true);
  // Every byte written to the tree exactly once: ordered nodes sink by
  // metadata moves (Sec 4.2.1), so total write amp ~= 1 (+ metadata).
  EXPECT_LT(stats.total_write_amp, 1.35) << "sequential load rewrote data";
  EXPECT_GE(stats.total_write_amp, 0.95);
  ASSERT_TRUE(db->CheckInvariants(true).ok());
}

TEST_F(AmtEngineTest, FlsmEmulationRewritesOnSequentialLoad) {
  Options options = BaseOptions();
  options.amt.policy = AmtPolicy::kLsa;
  options.amt.rewrite_on_flush = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db2", &db).ok());
  DbStats stats = Load(db.get(), 40000, /*sequential=*/true);
  // FLSM rewrites records on every level descent (paper Sec 6.8 measured
  // 6.42 at full scale); at our depth expect clearly > 2.
  EXPECT_GT(stats.total_write_amp, 2.0);
}

TEST_F(AmtEngineTest, FlsmRewriteAccountsItsMetadata) {
  // A rewritten node writes a fresh metadata region, which write amp
  // counts like every other output's; a move writes none.
  uint64_t metadata[2];
  for (bool rewrite : {false, true}) {
    Options options = BaseOptions();
    options.amt.policy = AmtPolicy::kLsa;
    options.amt.rewrite_on_flush = rewrite;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, rewrite ? "/meta_flsm" : "/meta_lsa", &db)
                    .ok());
    Load(db.get(), 40000, /*sequential=*/true);
    metadata[rewrite] = db->amp_stats().reason_bytes(WriteReason::kMetadata);
  }
  EXPECT_GT(metadata[0], 0u);
  EXPECT_GT(metadata[1], metadata[0]);
}

TEST_F(AmtEngineTest, HashLoadInvariantsHold) {
  for (AmtPolicy policy : {AmtPolicy::kLsa, AmtPolicy::kIam}) {
    Options options = BaseOptions();
    options.amt.policy = policy;
    std::string name =
        policy == AmtPolicy::kLsa ? "/db_lsa" : "/db_iam";
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, name, &db).ok());
    Load(db.get(), 60000, /*sequential=*/false);
    Status s = db->CheckInvariants(true);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
  }
}

TEST_F(AmtEngineTest, WriteAmpOrderingLsaBelowIamBelowMergeHeavy) {
  // Hash load with the same data volume under three policies.  LSA should
  // have the smallest write amp; IAM in between; forced merge-everywhere
  // (fixed m=1, k=1) the largest (paper Table 1).
  auto run = [&](AmtPolicy policy, int fixed_m, const std::string& name) {
    Options options = BaseOptions();
    options.amt.policy = policy;
    if (fixed_m >= 0) {
      options.amt.auto_tune_mk = false;
      options.amt.fixed_mixed_level = fixed_m;
      options.amt.k = 1;
    } else {
      // Generous cache: IAM keeps several appending levels.
      options.block_cache_capacity = 4 << 20;
    }
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    return Load(db.get(), 60000, /*sequential=*/false).total_write_amp;
  };

  double lsa = run(AmtPolicy::kLsa, -1, "/w_lsa");
  double iam = run(AmtPolicy::kIam, -1, "/w_iam");
  double merge_always = run(AmtPolicy::kIam, 1, "/w_merge");

  EXPECT_LT(lsa, iam * 1.05) << "LSA must not exceed IAM";
  EXPECT_LT(iam, merge_always) << "IAM must beat merge-everywhere";
  EXPECT_LT(lsa, merge_always * 0.7);
}

TEST_F(AmtEngineTest, MixedLevelMergesCapSequenceCount) {
  Options options = BaseOptions();
  options.amt.policy = AmtPolicy::kIam;
  options.amt.auto_tune_mk = false;
  options.amt.fixed_mixed_level = 1;  // L1 is the mixed level
  options.amt.k = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db3", &db).ok());
  Load(db.get(), 60000, /*sequential=*/false);
  // Below the mixed level every node must hold exactly one sequence;
  // verify via stats: mixed level reported as 1.
  DbStats stats = db->GetStats();
  EXPECT_EQ(1, stats.mixed_level);
  EXPECT_EQ(2, stats.mixed_level_k);
  ASSERT_TRUE(db->CheckInvariants(true).ok());
}

TEST_F(AmtEngineTest, DegenerateNoAppendEqualsMergeAlways) {
  // fixed m=1, k=1: every flush below L1 merges; L1 merges at 1 sequence.
  // This is the paper's "IAM degenerates into LSM" configuration; verify
  // it still serves reads correctly.
  Options options = BaseOptions();
  options.amt.policy = AmtPolicy::kIam;
  options.amt.auto_tune_mk = false;
  options.amt.fixed_mixed_level = 1;
  options.amt.k = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db4", &db).ok());
  std::string value(100, 'v');
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i % 7000), value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  for (int i = 0; i < 7000; i += 113) {
    std::string v;
    EXPECT_TRUE(db->Get(ReadOptions(), Key(i), &v).ok()) << i;
  }
  ASSERT_TRUE(db->CheckInvariants(true).ok());
}

TEST_F(AmtEngineTest, OverwriteReclaimsSpaceViaMerges) {
  // IAM with merging levels reclaims overwritten records; LSA keeps them
  // longer (paper Fig. 10: LSA takes 2.3x more space after overwrite).
  auto run = [&](AmtPolicy policy, const std::string& name) {
    Options options = BaseOptions();
    options.amt.policy = policy;
    options.block_cache_capacity = 64 << 10;  // small: IAM merges low
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    std::string value(100, 'v');
    for (int round = 0; round < 8; round++) {
      for (int i = 0; i < 5000; i++) {
        EXPECT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
      }
    }
    EXPECT_TRUE(db->WaitForQuiescence().ok());
    return db->GetStats().space_used_bytes;
  };
  uint64_t iam_space = run(AmtPolicy::kIam, "/s_iam");
  uint64_t lsa_space = run(AmtPolicy::kLsa, "/s_lsa");
  EXPECT_GT(lsa_space, iam_space) << "LSA should retain more dead data";
}

TEST_F(AmtEngineTest, PointReadsAfterDeepTreeFormation) {
  Options options = BaseOptions();
  options.amt.policy = AmtPolicy::kIam;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db5", &db).ok());
  std::string value(100, 'x');
  const int N = 50000;
  for (int i = 0; i < N; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i * 7919 % N), value).ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  DbStats stats = db->GetStats();
  ASSERT_GE(stats.level_node_counts.size(), 3u) << "tree too shallow";
  // Every written key must be readable.
  for (int i = 0; i < N; i += 487) {
    std::string v;
    EXPECT_TRUE(db->Get(ReadOptions(), Key(i), &v).ok()) << Key(i);
  }
}

TEST_F(AmtEngineTest, ParallelCompactionMatchesSerial) {
  auto load_and_dump = [&](int threads, const std::string& name) {
    Options options = BaseOptions();
    options.amt.policy = AmtPolicy::kIam;
    options.background_threads = threads;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    Random64 rnd(42);
    std::string value(100, 'v');
    for (int i = 0; i < 40000; i++) {
      EXPECT_TRUE(
          db->Put(WriteOptions(), Key(rnd.Next() % 20000), value).ok());
    }
    EXPECT_TRUE(db->WaitForQuiescence().ok());
    EXPECT_TRUE(db->CheckInvariants(true).ok());
    std::map<std::string, std::string> dump;
    std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      dump[iter->key().ToString()] = iter->value().ToString();
    }
    return dump;
  };
  auto serial = load_and_dump(1, "/p1");
  auto parallel = load_and_dump(4, "/p4");
  EXPECT_EQ(serial, parallel);
}

// A flush streams each target's partition from its shard's own iterator
// over the source.  Three edges of the left-biased gap rule, on an imm
// flush into four L1 nodes: records left of the first target's range_lo
// (they go to the first target, whose range then starts at the leftmost
// one, a tombstone), a target whose partition is empty (left untouched),
// and more subcompactions allowed than there are targets.  Both the append
// and the merge path run.  The tree must match the one a single shard
// builds.
TEST_F(AmtEngineTest, FlushPartitionEdgesMatchSingleShard) {
  struct Policy {
    AmtPolicy policy;
    bool merge_l1;  // IAM with L1 mixed at k = 1: every target merges
  };
  for (Policy policy : {Policy{AmtPolicy::kLsa, false},
                        Policy{AmtPolicy::kIam, true}}) {
    std::string digests[2];
    const int subcompactions[2] = {1, 64};
    for (int run = 0; run < 2; run++) {
      Options options = BaseOptions();
      options.amt.policy = policy.policy;
      if (policy.merge_l1) {
        options.amt.auto_tune_mk = false;
        options.amt.fixed_mixed_level = 1;
        options.amt.k = 1;
      }
      options.background_threads = 2;
      options.max_subcompactions = subcompactions[run];
      std::unique_ptr<DB> db;
      const std::string name = "/edges" + std::to_string(run) +
                               (policy.merge_l1 ? "m" : "a");
      ASSERT_TRUE(DB::Open(options, name, &db).ok());
      std::string value(100, 'v');
      // Four disjoint L1 nodes, one memtable each: [1000,1049] ...
      // [4000,4049].
      for (int base : {1000, 2000, 3000, 4000}) {
        for (int i = 0; i < 50; i++) {
          ASSERT_TRUE(db->Put(WriteOptions(), Key(base + i), value).ok());
        }
        ASSERT_TRUE(db->FlushAll().ok());
        ASSERT_TRUE(db->WaitForQuiescence().ok());
      }
      // One memtable that overlaps all four and skips the second.
      ASSERT_TRUE(db->Delete(WriteOptions(), Key(400)).ok());
      for (int i = 500; i < 510; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "left").ok());
      }
      for (int i = 1500; i < 1505; i++) {  // gap: goes to the first node
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "gap").ok());
      }
      for (int i = 3020; i < 3030; i++) {
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "over").ok());
      }
      ASSERT_TRUE(db->Put(WriteOptions(), Key(4500), "right").ok());
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_TRUE(db->WaitForQuiescence().ok());
      ASSERT_TRUE(db->CheckInvariants(true).ok());
      ASSERT_TRUE(db->GetProperty("iamdb.tree-digest", &digests[run]));

      // The edges happened: the first node took the left records and its
      // range starts at the tombstone's key; the second node kept its one
      // sequence; the last node's range reaches the right record.
      SCOPED_TRACE(digests[run]);
      EXPECT_NE(std::string::npos,
                digests[run].find("L0 node lo=" + Key(400) + " hi="));
      EXPECT_NE(std::string::npos,
                digests[run].find("L0 node lo=" + Key(2000) + " hi=" +
                                  Key(2049) + " entries=50 seqs=1 "));
      EXPECT_NE(std::string::npos, digests[run].find("hi=" + Key(4500)));
      std::string v;
      ASSERT_TRUE(db->Get(ReadOptions(), Key(500), &v).ok());
      EXPECT_EQ("left", v);
      ASSERT_TRUE(db->Get(ReadOptions(), Key(1502), &v).ok());
      EXPECT_EQ("gap", v);
    }
    EXPECT_EQ(digests[0], digests[1]);
  }
}

}  // namespace
}  // namespace iamdb
