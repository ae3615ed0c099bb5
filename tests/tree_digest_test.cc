// Golden tree digests: a fixed seeded history on each engine must install
// exactly the tree pinned below, byte for byte in `iamdb.tree-digest`, and
// write exactly the pinned bytes per level.  Flushes, appends, merges,
// splits and moves all reach the tree through these histories, so any
// change to what an output path writes, where it cuts or how it widens
// ranges shows up here.  The digest depends only on record contents and
// node shapes, so every block codec must give the same literal.
//
// The seed is fixed on purpose (not read from IAMDB_TEST_SEED): the
// literals belong to this one history.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "util/random.h"

namespace iamdb {
namespace {

constexpr uint64_t kSeed = 20261018;

struct Config {
  EngineType engine;
  AmtPolicy policy;
  bool rewrite_on_flush;
};

struct Result {
  std::string digest;
  std::vector<uint64_t> level_bytes;  // amp_stats().level_bytes(0..7)
  uint64_t reason_bytes[static_cast<int>(WriteReason::kNumReasons)] = {};
  // After the sequential phase: levels below the first holding records
  // although no byte was ever written into them.
  int moved_levels = 0;
};

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// A move rewrites nothing and records no bytes, so moves show up as
// records in a level that no write reached.  AmpStats numbers levels from
// L0 for the leveled engine and from L1 (the first on-disk level) for AMT.
int MovedLevels(const std::string& digest, const Config& config,
                const AmpStats& amp) {
  const int offset = config.engine == EngineType::kAmt ? 1 : 0;
  std::istringstream in(digest);
  std::string line;
  int moved = 0, level;
  unsigned long long entries;
  while (std::getline(in, line)) {
    if (std::sscanf(line.c_str(), "L%d stream entries=%llu", &level,
                    &entries) == 2 &&
        level > 0 && entries > 0 && amp.level_bytes(level + offset) == 0) {
      moved++;
    }
  }
  return moved;
}

// Every round fits one memtable and ends in a full drain, and one
// background thread runs every job unsharded, so the job sequence — and
// with it the tree — is a function of the history alone.
void Drain(DB* db) {
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
}

Result RunHistory(const Config& config, CompressionType codec) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.engine = config.engine;
  options.amt.policy = config.policy;
  options.amt.rewrite_on_flush = config.rewrite_on_flush;
  options.amt.fanout = 3;
  options.node_capacity = 16 << 10;
  options.block_cache_capacity = 96 << 10;
  options.table.block_size = 1024;
  options.table.compression = codec;
  options.leveled.max_bytes_level1 = 64 << 10;
  options.leveled.target_file_size = 8 << 10;
  options.background_threads = 1;
  options.max_subcompactions = 1;

  Result result;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, "/golden", &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return result;

  // Sequential phase: ordered keys, so nodes and files sink by moves.
  int next = 0;
  for (int round = 0; round < 12; round++) {
    for (int i = 0; i < 60; i++, next++) {
      std::string value = std::string("s")
                              .append(std::to_string(next))
                              .append(80 + next % 40, 'a');
      EXPECT_TRUE(db->Put(WriteOptions(), Key(next * 4), value).ok());
    }
    Drain(db.get());
  }
  std::string digest;
  EXPECT_TRUE(db->GetProperty("iamdb.tree-digest", &digest));
  result.moved_levels = MovedLevels(digest, config, db->amp_stats());
  // Hash phase: overwrites and deletes across the loaded range and past
  // it, driving appends, merges and splits.
  Random64 rnd(kSeed);
  for (int round = 0; round < 60; round++) {
    for (int i = 0; i < 70; i++) {
      int k = static_cast<int>(rnd.Next() % (next * 6));
      if (rnd.Next() % 8 == 0) {
        EXPECT_TRUE(db->Delete(WriteOptions(), Key(k)).ok());
      } else {
        // One draw per statement: the operands of `+` are evaluated in an
        // unspecified order, and the literals depend on the draw order.
        const uint64_t tag = rnd.Next() % 10000;
        const size_t padding = 1 + rnd.Next() % 120;
        std::string value =
            std::string("h").append(std::to_string(tag)).append(padding, 'b');
        EXPECT_TRUE(db->Put(WriteOptions(), Key(k), value).ok());
      }
    }
    Drain(db.get());
  }
  EXPECT_TRUE(db->CheckInvariants(true).ok());
  EXPECT_TRUE(db->GetProperty("iamdb.tree-digest", &result.digest));
  const AmpStats& amp = db->amp_stats();
  for (int level = 0; level < 8; level++) {
    result.level_bytes.push_back(amp.level_bytes(level));
  }
  for (int r = 0; r < static_cast<int>(WriteReason::kNumReasons); r++) {
    result.reason_bytes[r] = amp.reason_bytes(static_cast<WriteReason>(r));
  }
  return result;
}

const Config kLeveled{EngineType::kLeveled, AmtPolicy::kLsa, false};
const Config kLsa{EngineType::kAmt, AmtPolicy::kLsa, false};
const Config kIam{EngineType::kAmt, AmtPolicy::kIam, false};
const Config kFlsm{EngineType::kAmt, AmtPolicy::kLsa, true};

const CompressionType kCodecs[] = {CompressionType::kNone,
                                   CompressionType::kColumnar,
                                   CompressionType::kLz};

// Each engine installs the pinned tree under every codec, and with raw
// blocks writes the pinned bytes into each level.
void ExpectGolden(const Config& config, const char* digest,
                  const std::vector<uint64_t>& level_bytes) {
  for (CompressionType codec : kCodecs) {
    SCOPED_TRACE("codec " + std::to_string(static_cast<int>(codec)));
    Result r = RunHistory(config, codec);
    EXPECT_EQ(digest, r.digest);
    if (codec == CompressionType::kNone) {
      EXPECT_EQ(level_bytes, r.level_bytes);
    }
  }
}

TEST(TreeDigestTest, Leveled) {
  ExpectGolden(kLeveled, R"(L0 node lo=key000042 hi=key004048 entries=69 seqs=1 crc=57ce5979
L0 node lo=key000127 hi=key004142 entries=67 seqs=1 crc=da8cc63f
L0 node lo=key000014 hi=key004223 entries=70 seqs=1 crc=54a6ab07
L0 stream entries=206 crc=b340c9c9
L1 node lo=key000484 hi=key000890 entries=131 seqs=1 crc=2f3e6457
L1 node lo=key001185 hi=key001606 entries=129 seqs=1 crc=b3be37ad
L1 node lo=key001612 hi=key002359 entries=126 seqs=1 crc=522e9c6e
L1 node lo=key002360 hi=key002720 entries=116 seqs=1 crc=5125a1a7
L1 node lo=key002739 hi=key003113 entries=127 seqs=1 crc=d1b57f2d
L1 node lo=key003116 hi=key003731 entries=116 seqs=1 crc=d3440617
L1 node lo=key003737 hi=key004309 entries=81 seqs=1 crc=8c7928c1
L1 stream entries=826 crc=2395ec2a
L2 node lo=key000000 hi=key000163 entries=102 seqs=1 crc=55752185
L2 node lo=key000164 hi=key000344 entries=115 seqs=1 crc=80639e37
L2 node lo=key000347 hi=key000481 entries=87 seqs=1 crc=dfc954ae
L2 node lo=key000482 hi=key000571 entries=51 seqs=1 crc=ddf34168
L2 node lo=key000572 hi=key000748 entries=100 seqs=1 crc=82177348
L2 node lo=key000749 hi=key000856 entries=61 seqs=1 crc=eec4bd5d
L2 node lo=key000868 hi=key001025 entries=99 seqs=1 crc=074c423f
L2 node lo=key001026 hi=key001212 entries=106 seqs=1 crc=5a0150ec
L2 node lo=key001216 hi=key001279 entries=36 seqs=1 crc=4087c081
L2 node lo=key001280 hi=key001480 entries=95 seqs=1 crc=f28d2d05
L2 node lo=key001485 hi=key001664 entries=97 seqs=1 crc=bac455eb
L2 node lo=key001667 hi=key001836 entries=87 seqs=1 crc=a91f01df
L2 node lo=key001838 hi=key002008 entries=94 seqs=1 crc=99f27406
L2 node lo=key002009 hi=key002180 entries=104 seqs=1 crc=a7c771e0
L2 node lo=key002181 hi=key002339 entries=94 seqs=1 crc=7d3c7d2d
L2 node lo=key002340 hi=key002359 entries=9 seqs=1 crc=f105f2ed
L2 node lo=key002360 hi=key002536 entries=79 seqs=1 crc=a7b5fc33
L2 node lo=key002537 hi=key002704 entries=88 seqs=1 crc=76c1d1c4
L2 node lo=key002706 hi=key002865 entries=98 seqs=1 crc=51e77590
L2 node lo=key002866 hi=key003012 entries=57 seqs=1 crc=5266481c
L2 node lo=key003014 hi=key003332 entries=106 seqs=1 crc=fed64cbd
L2 node lo=key003337 hi=key003553 entries=111 seqs=1 crc=d4ffbef6
L2 node lo=key003554 hi=key003697 entries=62 seqs=1 crc=7ec9f494
L2 node lo=key003701 hi=key003971 entries=108 seqs=1 crc=4b0afa19
L2 node lo=key003973 hi=key004173 entries=109 seqs=1 crc=f240eace
L2 node lo=key004176 hi=key004290 entries=59 seqs=1 crc=1712e384
L2 node lo=key004291 hi=key004315 entries=11 seqs=1 crc=030d9ef1
L2 stream entries=2225 crc=6bded677
L3 stream entries=0 crc=00000000
L4 stream entries=0 crc=00000000
L5 stream entries=0 crc=00000000
L6 stream entries=0 crc=00000000
)",
               {411372, 1231371, 332153, 0, 0, 0, 0, 0});
}

TEST(TreeDigestTest, Lsa) {
  ExpectGolden(kLsa, R"(L0 node lo=key000014 hi=key001683 entries=120 seqs=4 crc=8ffc8085
L0 node lo=key001684 hi=key004315 entries=117 seqs=3 crc=d0435be8
L0 stream entries=237 crc=89f81ee1
L1 node lo=key000017 hi=key000909 entries=176 seqs=1 crc=ad5a130a
L1 node lo=key000914 hi=key001437 entries=114 seqs=1 crc=e3410aae
L1 node lo=key001440 hi=key001683 entries=44 seqs=1 crc=dd6faf76
L1 node lo=key001685 hi=key002512 entries=0 seqs=0 crc=00000000
L1 node lo=key002516 hi=key002864 entries=211 seqs=3 crc=026d2d17
L1 node lo=key002865 hi=key003551 entries=131 seqs=1 crc=fe2bb554
L1 node lo=key003561 hi=key004315 entries=134 seqs=1 crc=0bb2bb12
L1 stream entries=810 crc=18544fad
L2 node lo=key000000 hi=key000478 entries=0 seqs=0 crc=00000000
L2 node lo=key000564 hi=key000656 entries=46 seqs=1 crc=76314bcc
L2 node lo=key000747 hi=key000840 entries=50 seqs=1 crc=8e80bddb
L2 node lo=key000914 hi=key001004 entries=50 seqs=1 crc=ca57e8ff
L2 node lo=key001006 hi=key001092 entries=51 seqs=1 crc=2d329a33
L2 node lo=key001093 hi=key001197 entries=50 seqs=1 crc=cc654d74
L2 node lo=key001440 hi=key001529 entries=51 seqs=1 crc=44cf179e
L2 node lo=key001532 hi=key001619 entries=47 seqs=1 crc=76334312
L2 node lo=key001620 hi=key001714 entries=57 seqs=2 crc=5ceed3c7
L2 node lo=key001716 hi=key001784 entries=52 seqs=2 crc=cc4a11cf
L2 node lo=key001785 hi=key001874 entries=73 seqs=2 crc=7addf97f
L2 node lo=key001875 hi=key002394 entries=148 seqs=2 crc=c1a618ff
L2 node lo=key002400 hi=key002512 entries=103 seqs=2 crc=d32ee664
L2 node lo=key002515 hi=key002644 entries=44 seqs=1 crc=52031734
L2 node lo=key002648 hi=key002768 entries=43 seqs=1 crc=3fd8365e
L2 node lo=key002772 hi=key002852 entries=31 seqs=1 crc=b68bfcf7
L2 node lo=key003212 hi=key003337 entries=54 seqs=1 crc=08d89941
L2 node lo=key003343 hi=key003439 entries=53 seqs=1 crc=6787404d
L2 node lo=key003440 hi=key003559 entries=57 seqs=1 crc=adae8594
L2 node lo=key003560 hi=key003681 entries=57 seqs=1 crc=2d1d7a14
L2 node lo=key003682 hi=key003685 entries=4 seqs=1 crc=ff5e6c1a
L2 node lo=key004124 hi=key004319 entries=127 seqs=4 crc=307a31f2
L2 stream entries=1248 crc=42b8d3af
L3 node lo=key000000 hi=key000093 entries=55 seqs=1 crc=f338ed83
L3 node lo=key000097 hi=key000152 entries=37 seqs=1 crc=b21e14a8
L3 node lo=key000153 hi=key000214 entries=39 seqs=1 crc=9f56b367
L3 node lo=key000216 hi=key000304 entries=54 seqs=1 crc=81befa78
L3 node lo=key000306 hi=key000373 entries=42 seqs=1 crc=9926e106
L3 node lo=key000374 hi=key000443 entries=37 seqs=1 crc=a2334ae1
L3 node lo=key000444 hi=key000478 entries=23 seqs=1 crc=0badbee9
L3 node lo=key000480 hi=key000561 entries=49 seqs=1 crc=d8bf732d
L3 node lo=key000660 hi=key000744 entries=52 seqs=1 crc=dc811c0b
L3 node lo=key000842 hi=key000913 entries=41 seqs=1 crc=97c1950d
L3 node lo=key001200 hi=key001439 entries=217 seqs=5 crc=b406c4b9
L3 node lo=key001920 hi=key002159 entries=200 seqs=8 crc=f068603a
L3 node lo=key002160 hi=key002396 entries=205 seqs=8 crc=3fd6b4bb
L3 node lo=key002856 hi=key003211 entries=243 seqs=4 crc=35a4cfee
L3 node lo=key003691 hi=key004123 entries=270 seqs=4 crc=8f1dca4f
L3 stream entries=1564 crc=40b6b4d4
)",
               {0, 606340, 390012, 210788, 25757, 0, 0, 0});
}

TEST(TreeDigestTest, Iam) {
  ExpectGolden(kIam, R"(L0 node lo=key000000 hi=key001683 entries=197 seqs=7 crc=84f0d677
L0 node lo=key001684 hi=key002403 entries=64 seqs=6 crc=9054cc81
L0 node lo=key002404 hi=key004315 entries=81 seqs=3 crc=f405ddef
L0 stream entries=342 crc=4caccc83
L1 node lo=key000000 hi=key000899 entries=135 seqs=1 crc=fcbed47a
L1 node lo=key000903 hi=key001198 entries=150 seqs=1 crc=92cd845d
L1 node lo=key001200 hi=key001683 entries=0 seqs=0 crc=00000000
L1 node lo=key001685 hi=key002396 entries=0 seqs=0 crc=00000000
L1 node lo=key002400 hi=key002864 entries=0 seqs=0 crc=00000000
L1 node lo=key002865 hi=key003212 entries=166 seqs=1 crc=aee9cc88
L1 node lo=key003217 hi=key003646 entries=194 seqs=1 crc=1e273171
L1 node lo=key003649 hi=key004058 entries=181 seqs=1 crc=a7ff1e38
L1 node lo=key004059 hi=key004315 entries=121 seqs=1 crc=426d1356
L1 stream entries=947 crc=fef8de6e
L2 node lo=key000000 hi=key000093 entries=53 seqs=1 crc=4b9687fb
L2 node lo=key000154 hi=key000243 entries=51 seqs=1 crc=61241db5
L2 node lo=key000333 hi=key000400 entries=38 seqs=1 crc=74cc2201
L2 node lo=key000480 hi=key000553 entries=49 seqs=1 crc=4fb22e3b
L2 node lo=key000572 hi=key000633 entries=38 seqs=1 crc=b163e80b
L2 node lo=key000685 hi=key000757 entries=52 seqs=1 crc=8115d939
L2 node lo=key000799 hi=key000886 entries=52 seqs=1 crc=c4ddd9bc
L2 node lo=key000900 hi=key000992 entries=31 seqs=1 crc=fe27de25
L2 node lo=key001088 hi=key001192 entries=35 seqs=1 crc=e4f3611e
L2 node lo=key001680 hi=key001918 entries=161 seqs=1 crc=7107080a
L2 node lo=key002400 hi=key002512 entries=79 seqs=1 crc=cc798c3d
L2 node lo=key002515 hi=key002647 entries=95 seqs=1 crc=8c4ee620
L2 node lo=key002648 hi=key002771 entries=89 seqs=1 crc=4172d2f8
L2 node lo=key002772 hi=key002852 entries=64 seqs=1 crc=2db41ca4
L2 node lo=key002856 hi=key003035 entries=51 seqs=1 crc=87d83e17
L2 node lo=key003038 hi=key003196 entries=42 seqs=1 crc=bf2108fe
L2 node lo=key003199 hi=key003211 entries=3 seqs=1 crc=cff66bed
L2 node lo=key003212 hi=key003404 entries=58 seqs=1 crc=9314c1ff
L2 node lo=key003407 hi=key003628 entries=51 seqs=1 crc=052356f1
L2 node lo=key003634 hi=key003685 entries=15 seqs=1 crc=a6af4856
L2 node lo=key003691 hi=key003858 entries=40 seqs=1 crc=6a9091bd
L2 node lo=key003859 hi=key004058 entries=51 seqs=1 crc=5f7a1715
L2 node lo=key004059 hi=key004113 entries=15 seqs=1 crc=77855392
L2 node lo=key004124 hi=key004299 entries=51 seqs=1 crc=5504b01f
L2 node lo=key004304 hi=key004319 entries=3 seqs=1 crc=b79d9190
L2 stream entries=1267 crc=9173a1fb
L3 node lo=key000096 hi=key000153 entries=38 seqs=1 crc=79d6cbf7
L3 node lo=key000244 hi=key000332 entries=52 seqs=1 crc=75135487
L3 node lo=key000404 hi=key000478 entries=40 seqs=1 crc=bb8cb237
L3 node lo=key000554 hi=key000571 entries=9 seqs=1 crc=34de906d
L3 node lo=key000634 hi=key000684 entries=31 seqs=1 crc=4e8d1083
L3 node lo=key000760 hi=key000796 entries=21 seqs=1 crc=e2944102
L3 node lo=key000887 hi=key000899 entries=7 seqs=1 crc=9532ea4b
L3 node lo=key000996 hi=key001084 entries=31 seqs=1 crc=35731303
L3 node lo=key001196 hi=key001196 entries=1 seqs=1 crc=8294e20a
L3 node lo=key001200 hi=key001679 entries=329 seqs=1 crc=e4955660
L3 node lo=key001920 hi=key002396 entries=334 seqs=1 crc=cbf845d7
L3 stream entries=893 crc=e4f19bd3
)",
               {0, 615415, 866379, 255786, 0, 0, 0, 0});
}

// FLSM emulation rewrites a childless node instead of moving it; only its
// tree is pinned here.
TEST(TreeDigestTest, LsaRewriteOnFlush) {
  EXPECT_EQ(R"(L0 node lo=key000014 hi=key002083 entries=0 seqs=0 crc=00000000
L0 node lo=key002084 hi=key004315 entries=70 seqs=2 crc=a0038932
L0 stream entries=70 crc=a0038932
L1 node lo=key000000 hi=key000478 entries=0 seqs=0 crc=00000000
L1 node lo=key000480 hi=key000878 entries=157 seqs=2 crc=c0c3f623
L1 node lo=key000882 hi=key001677 entries=231 seqs=2 crc=3a62d254
L1 node lo=key001680 hi=key002083 entries=103 seqs=2 crc=8e34c926
L1 node lo=key002089 hi=key002604 entries=189 seqs=3 crc=76eda3bb
L1 node lo=key002607 hi=key002946 entries=192 seqs=3 crc=0f632c73
L1 node lo=key002947 hi=key003693 entries=221 seqs=3 crc=1af17744
L1 node lo=key003695 hi=key004310 entries=124 seqs=2 crc=ac506073
L1 stream entries=1217 crc=99875529
L2 node lo=key000000 hi=key000091 entries=56 seqs=1 crc=a6451c0b
L2 node lo=key000160 hi=key000242 entries=55 seqs=1 crc=bf0ef8f4
L2 node lo=key000330 hi=key000408 entries=50 seqs=1 crc=eec5c3cf
L2 node lo=key000480 hi=key000561 entries=49 seqs=1 crc=ddcf6d54
L2 node lo=key000564 hi=key000654 entries=46 seqs=1 crc=6cddceb3
L2 node lo=key000656 hi=key000720 entries=39 seqs=1 crc=bd209b53
L2 node lo=key000721 hi=key000782 entries=40 seqs=1 crc=9d568d00
L2 node lo=key000784 hi=key000878 entries=47 seqs=1 crc=2b2a7a4f
L2 node lo=key000880 hi=key000958 entries=46 seqs=1 crc=684c89f1
L2 node lo=key000960 hi=key001041 entries=48 seqs=1 crc=240a2251
L2 node lo=key001043 hi=key001115 entries=39 seqs=1 crc=b4790627
L2 node lo=key001116 hi=key001197 entries=41 seqs=1 crc=9b0a60fa
L2 node lo=key001200 hi=key001439 entries=152 seqs=1 crc=5d561159
L2 node lo=key001440 hi=key001679 entries=147 seqs=1 crc=006ea112
L2 node lo=key002160 hi=key002396 entries=147 seqs=1 crc=d8dbfbe4
L2 node lo=key002400 hi=key002492 entries=44 seqs=1 crc=cd34248a
L2 node lo=key002494 hi=key002604 entries=45 seqs=1 crc=13a84451
L2 node lo=key002606 hi=key002700 entries=41 seqs=1 crc=8cf736e1
L2 node lo=key002702 hi=key002784 entries=36 seqs=1 crc=3691f0d4
L2 node lo=key002788 hi=key002932 entries=47 seqs=1 crc=079414ea
L2 node lo=key002944 hi=key003157 entries=119 seqs=2 crc=331b60fe
L2 node lo=key003159 hi=key003404 entries=128 seqs=2 crc=ce7a2c6b
L2 node lo=key003407 hi=key003693 entries=154 seqs=2 crc=b9422ab4
L2 node lo=key003695 hi=key003948 entries=138 seqs=2 crc=ef8a9f61
L2 node lo=key003954 hi=key004219 entries=149 seqs=2 crc=d42fbfcf
L2 node lo=key004221 hi=key004319 entries=61 seqs=2 crc=26418126
L2 stream entries=1964 crc=a8814ead
L3 node lo=key000092 hi=key000158 entries=46 seqs=1 crc=29f86110
L3 node lo=key000243 hi=key000329 entries=55 seqs=1 crc=0270c1f6
L3 node lo=key000410 hi=key000478 entries=45 seqs=1 crc=11a91acf
L3 node lo=key001680 hi=key002159 entries=295 seqs=1 crc=070a4ee1
L3 stream entries=441 crc=fa33224a
)",
            RunHistory(kFlsm, CompressionType::kNone).digest);
}

// The histories above reach every output site: flushes, appends, merges
// and splits write bytes, and moves leave records in levels nothing wrote.
TEST(TreeDigestTest, HistoriesExerciseEveryOutputSite) {
  uint64_t bytes[static_cast<int>(WriteReason::kNumReasons)] = {};
  int moved_levels = 0;
  for (const Config& config : {kLeveled, kLsa, kIam}) {
    Result r = RunHistory(config, CompressionType::kNone);
    for (int i = 0; i < static_cast<int>(WriteReason::kNumReasons); i++) {
      bytes[i] += r.reason_bytes[i];
    }
    moved_levels += r.moved_levels;
  }
  for (WriteReason reason : {WriteReason::kFlush, WriteReason::kAppend,
                             WriteReason::kMerge, WriteReason::kSplit}) {
    EXPECT_GT(bytes[static_cast<int>(reason)], 0u)
        << WriteReasonName(reason);
  }
  EXPECT_EQ(0u, bytes[static_cast<int>(WriteReason::kMove)]);
  EXPECT_GT(moved_levels, 0);
}

}  // namespace
}  // namespace iamdb
