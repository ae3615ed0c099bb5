// ShardedDB: partition function pinning, SHARDMAP manifest durability,
// open/create semantics, seeded equivalence against a single instance
// across all three engines, snapshot semantics, stats aggregation, and the
// plain client against a sharded server (server-routed MGET and SCAN).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/db.h"
#include "env/mem_env.h"
#include "memtable/write_batch.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/shard_map.h"
#include "shard/sharded_db.h"
#include "table/iterator.h"
#include "test_seed.h"
#include "util/coding.h"

namespace iamdb {
namespace {

struct EngineCase {
  const char* name;
  EngineType engine;
  AmtPolicy policy;
};

constexpr EngineCase kEngines[] = {
    {"leveled", EngineType::kLeveled, AmtPolicy::kIam},
    {"lsa", EngineType::kAmt, AmtPolicy::kLsa},
    {"iam", EngineType::kAmt, AmtPolicy::kIam},
};

Options MakeOptions(Env* env, const EngineCase& e) {
  Options options;
  options.env = env;
  options.engine = e.engine;
  options.amt.policy = e.policy;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.background_threads = 2;
  return options;
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

// --- partition function ---------------------------------------------------

TEST(ShardHashTest, PinnedVectors) {
  // The hash is persistent state: every key's home shard derives from it.
  // These vectors pin FNV-1a64 + SplitMix64 exactly; if this test fails,
  // the hash changed and every existing sharded database is broken.
  EXPECT_EQ(ShardHash(Slice("")), 0xc3817c016ba4ff30ull);
  EXPECT_EQ(ShardHash(Slice("a")), 0x5f29c2aadd9b8527ull);
  EXPECT_EQ(ShardHash(Slice("user000000000042")), 0x33ecb102e98eee65ull);
  EXPECT_EQ(ShardHash(Slice("key-7")), 0xbdef35f0b254574bull);
  EXPECT_EQ(ShardHash(Slice("\x00\xff", 2)), 0x54578a4514abb9dfull);
}

TEST(ShardHashTest, SpreadsSequentialKeys) {
  // Benchmark-style sequential keys must not clump: with 4 shards and 8k
  // keys every shard should hold within 20% of the fair share.
  constexpr int kShards = 4, kKeys = 8000;
  int counts[kShards] = {};
  for (int i = 0; i < kKeys; i++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%012d", i);
    counts[ShardOf(Slice(buf), kShards)]++;
  }
  for (int s = 0; s < kShards; s++) {
    EXPECT_GT(counts[s], kKeys / kShards * 8 / 10) << "shard " << s;
    EXPECT_LT(counts[s], kKeys / kShards * 12 / 10) << "shard " << s;
  }
}

TEST(ShardHashTest, SingleShardRoutesEverythingToZero) {
  EXPECT_EQ(ShardOf(Slice("anything"), 1), 0u);
  EXPECT_EQ(ShardOf(Slice(""), 0), 0u);
}

// --- SHARDMAP manifest ----------------------------------------------------

TEST(ShardMapTest, FormatParseRoundtrip) {
  ShardMap map;
  map.num_shards = 12;
  std::string text = FormatShardMap(map);
  EXPECT_EQ(text, "v=1 shards=12 hash=splitmix64");
  ShardMap parsed;
  ASSERT_TRUE(ParseShardMap(text, &parsed));
  EXPECT_EQ(parsed.version, 1u);
  EXPECT_EQ(parsed.num_shards, 12u);
  EXPECT_EQ(parsed.hash, "splitmix64");
  EXPECT_FALSE(ParseShardMap("shards=4", &parsed));
  EXPECT_FALSE(ParseShardMap("", &parsed));
}

TEST(ShardMapTest, FileRoundtrip) {
  MemEnv env;
  env.CreateDir("/db");
  ShardMap map;
  map.num_shards = 8;
  ASSERT_TRUE(WriteShardMapFile(&env, "/db", map).ok());
  ShardMap read;
  ASSERT_TRUE(ReadShardMapFile(&env, "/db", &read).ok());
  EXPECT_EQ(read.num_shards, 8u);
  EXPECT_EQ(read.hash, "splitmix64");
}

TEST(ShardMapTest, CorruptionDetected) {
  MemEnv env;
  env.CreateDir("/db");
  ShardMap map;
  map.num_shards = 8;
  ASSERT_TRUE(WriteShardMapFile(&env, "/db", map).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, ShardMapFileName("/db"), &contents).ok());
  // Flip the shard count in place; the CRC must catch it.
  size_t pos = contents.find("shards=8");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 7] = '9';
  ASSERT_TRUE(
      WriteStringToFile(&env, contents, ShardMapFileName("/db"), false).ok());
  ShardMap read;
  Status s = ReadShardMapFile(&env, "/db", &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ShardMapTest, ForeignHashRefused) {
  MemEnv env;
  env.CreateDir("/db");
  ShardMap map;
  map.num_shards = 2;
  map.hash = "xxhash3";  // valid manifest, unknown partition scheme
  ASSERT_TRUE(WriteShardMapFile(&env, "/db", map).ok());
  ShardMap read;
  Status s = ReadShardMapFile(&env, "/db", &read);
  EXPECT_TRUE(s.IsNotSupported()) << s.ToString();
}

// --- open / create semantics ----------------------------------------------

TEST(ShardedOpenTest, CreateReopenAndCountMismatch) {
  MemEnv env;
  Options options = MakeOptions(&env, kEngines[2]);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 4, &db).ok());
  EXPECT_EQ(static_cast<ShardedDB*>(db.get())->shard_map().num_shards, 4u);
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  db.reset();

  // num_shards == 0 adopts the persisted count.
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 0, &db).ok());
  EXPECT_EQ(static_cast<ShardedDB*>(db.get())->shard_map().num_shards, 4u);
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ(value, "v");
  db.reset();

  // A different count is refused, not silently rehashed.
  Status s = ShardedDB::Open(options, "/sdb", 2, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // Matching explicit count still opens.
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 4, &db).ok());
  db.reset();

  // Opening a nonexistent database with count 0 cannot guess a layout.
  s = ShardedDB::Open(options, "/nosuch", 0, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  ASSERT_TRUE(ShardedDB::Destroy(options, "/sdb").ok());
  s = ShardedDB::Open(options, "/sdb", 0, &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// --- seeded equivalence against a single instance -------------------------

// Drives an identical random history into a ShardedDB(N) and a plain DB,
// then asserts byte-identical reads: point gets, full forward and reverse
// scans, bounded scans, and a direction-switching walk.
void RunEquivalence(const EngineCase& engine, int num_shards, uint64_t seed) {
  SCOPED_TRACE(std::string(engine.name) + " shards=" +
               std::to_string(num_shards) + " " + test::SeedTrace(seed));
  MemEnv env;
  Options options = MakeOptions(&env, engine);

  std::unique_ptr<DB> sharded, plain;
  ASSERT_TRUE(ShardedDB::Open(options, "/sharded", num_shards, &sharded).ok());
  ASSERT_TRUE(DB::Open(options, "/plain", &plain).ok());

  std::mt19937_64 rng(seed);
  constexpr int kKeySpace = 200;
  for (int i = 0; i < 600; i++) {
    const std::string key = Key(static_cast<int>(rng() % kKeySpace));
    if (rng() % 4 == 0) {
      ASSERT_TRUE(sharded->Delete(WriteOptions(), key).ok());
      ASSERT_TRUE(plain->Delete(WriteOptions(), key).ok());
    } else if (rng() % 5 == 0) {
      // Multi-record batch crossing shard boundaries.
      WriteBatch b1, b2;
      for (int j = 0; j < 8; j++) {
        const std::string bk = Key(static_cast<int>(rng() % kKeySpace));
        const std::string bv = std::string("b")
                                   .append(std::to_string(i))
                                   .append(".")
                                   .append(std::to_string(j));
        b1.Put(bk, bv);
        b2.Put(bk, bv);
      }
      ASSERT_TRUE(sharded->Write(WriteOptions(), &b1).ok());
      ASSERT_TRUE(plain->Write(WriteOptions(), &b2).ok());
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(sharded->Put(WriteOptions(), key, value).ok());
      ASSERT_TRUE(plain->Put(WriteOptions(), key, value).ok());
    }
  }
  ASSERT_TRUE(sharded->WaitForQuiescence().ok());
  ASSERT_TRUE(plain->WaitForQuiescence().ok());

  // Point reads, present and absent keys alike.
  for (int i = 0; i < kKeySpace + 10; i++) {
    std::string sv, pv;
    Status ss = sharded->Get(ReadOptions(), Key(i), &sv);
    Status ps = plain->Get(ReadOptions(), Key(i), &pv);
    ASSERT_EQ(ss.ok(), ps.ok()) << Key(i);
    ASSERT_EQ(ss.IsNotFound(), ps.IsNotFound()) << Key(i);
    if (ss.ok()) {
      ASSERT_EQ(sv, pv) << Key(i);
    }
  }

  auto Collect = [](Iterator* it) {
    std::vector<std::pair<std::string, std::string>> out;
    for (; it->Valid(); it->Next()) {
      out.emplace_back(it->key().ToString(), it->value().ToString());
    }
    EXPECT_TRUE(it->status().ok());
    return out;
  };

  // Full forward scan.
  std::unique_ptr<Iterator> si(sharded->NewIterator(ReadOptions()));
  std::unique_ptr<Iterator> pi(plain->NewIterator(ReadOptions()));
  si->SeekToFirst();
  pi->SeekToFirst();
  auto sharded_all = Collect(si.get());
  auto plain_all = Collect(pi.get());
  ASSERT_EQ(sharded_all, plain_all);
  ASSERT_FALSE(plain_all.empty());

  // Full reverse scan.
  si->SeekToLast();
  pi->SeekToLast();
  std::vector<std::pair<std::string, std::string>> sharded_rev, plain_rev;
  for (; si->Valid(); si->Prev()) {
    sharded_rev.emplace_back(si->key().ToString(), si->value().ToString());
  }
  for (; pi->Valid(); pi->Prev()) {
    plain_rev.emplace_back(pi->key().ToString(), pi->value().ToString());
  }
  ASSERT_TRUE(si->status().ok());
  ASSERT_EQ(sharded_rev, plain_rev);

  // Bounded scan from a random interior key.
  const std::string bound = Key(static_cast<int>(rng() % kKeySpace));
  si->Seek(bound);
  pi->Seek(bound);
  for (int steps = 0; steps < 25 && pi->Valid(); steps++) {
    ASSERT_TRUE(si->Valid());
    ASSERT_EQ(si->key().ToString(), pi->key().ToString());
    ASSERT_EQ(si->value().ToString(), pi->value().ToString());
    si->Next();
    pi->Next();
  }

  // Direction switches, the merge's hardest case: forward a few, reverse a
  // few, forward again.
  si->Seek(bound);
  pi->Seek(bound);
  auto Step = [&](bool forward) {
    ASSERT_EQ(si->Valid(), pi->Valid());
    if (!pi->Valid()) return;
    if (forward) {
      si->Next();
      pi->Next();
    } else {
      si->Prev();
      pi->Prev();
    }
    ASSERT_EQ(si->Valid(), pi->Valid());
    if (pi->Valid()) {
      ASSERT_EQ(si->key().ToString(), pi->key().ToString());
      ASSERT_EQ(si->value().ToString(), pi->value().ToString());
    }
  };
  for (bool forward : {true, true, true, false, false, true, false, true}) {
    Step(forward);
  }
}

TEST(ShardedEquivalenceTest, AllEnginesAllShardCounts) {
  const uint64_t seed = test::TestSeed(20260807);
  for (const EngineCase& engine : kEngines) {
    for (int shards : {1, 2, 4}) {
      RunEquivalence(engine, shards, seed + shards);
    }
  }
}

// Batched reads group keys per shard and issue one native MultiGet each;
// results must match per-key routed Gets, including at a pinned sharded
// snapshot.
TEST(ShardedMultiGetTest, MatchesPerKeyGets) {
  const uint64_t seed = test::TestSeed(20260808);
  for (int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    MemEnv env;
    Options options = MakeOptions(&env, kEngines[2]);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(ShardedDB::Open(options, "/db", num_shards, &db).ok());

    std::mt19937_64 rng(seed + num_shards);
    constexpr int kKeySpace = 300;
    for (int i = 0; i < 900; i++) {
      const std::string key = Key(static_cast<int>(rng() % kKeySpace));
      if (rng() % 5 == 0) {
        ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      } else {
        ASSERT_TRUE(db->Put(WriteOptions(), key,
                            std::string("v").append(std::to_string(i)))
                        .ok());
      }
    }

    const Snapshot* snap = db->GetSnapshot();
    for (int i = 0; i < kKeySpace; i += 2) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "post-snap").ok());
    }

    std::vector<std::string> keys;
    for (int i = 0; i < kKeySpace + 10; i++) keys.push_back(Key(i));
    keys.push_back(keys[3]);  // duplicate
    std::vector<Slice> slices;
    for (const std::string& k : keys) slices.emplace_back(k);

    for (bool pinned : {false, true}) {
      ReadOptions ro;
      if (pinned) ro.snapshot = snap;
      std::vector<std::string> values(keys.size());
      std::vector<Status> statuses(keys.size());
      db->MultiGet(ro, slices.size(), slices.data(), values.data(),
                   statuses.data());
      for (size_t i = 0; i < keys.size(); i++) {
        std::string expect_value;
        Status expect = db->Get(ro, keys[i], &expect_value);
        ASSERT_EQ(expect.ok(), statuses[i].ok()) << keys[i];
        ASSERT_EQ(expect.IsNotFound(), statuses[i].IsNotFound()) << keys[i];
        if (expect.ok()) {
          ASSERT_EQ(expect_value, values[i]) << keys[i];
        }
      }
    }
    db->ReleaseSnapshot(snap);
  }
}

// --- snapshots ------------------------------------------------------------

TEST(ShardedSnapshotTest, SnapshotPinsPerShardViews) {
  MemEnv env;
  Options options = MakeOptions(&env, kEngines[2]);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 3, &db).ok());

  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "old").ok());
  }
  const Snapshot* snap = db->GetSnapshot();
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "new").ok());
  }
  ASSERT_TRUE(db->Delete(WriteOptions(), Key(0)).ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(db->Get(at_snap, Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(value, "old") << Key(i);
  }
  std::unique_ptr<Iterator> it(db->NewIterator(at_snap));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), n++) {
    EXPECT_EQ(it->value().ToString(), "old");
  }
  EXPECT_EQ(n, 40);
  it.reset();
  db->ReleaseSnapshot(snap);

  ASSERT_TRUE(db->Get(ReadOptions(), Key(1), &value).ok());
  EXPECT_EQ(value, "new");
  EXPECT_TRUE(db->Get(ReadOptions(), Key(0), &value).IsNotFound());
}

// --- stats aggregation and properties -------------------------------------

TEST(ShardedStatsTest, SumsShardsAndExposesBreakdown) {
  MemEnv env;
  Options options = MakeOptions(&env, kEngines[2]);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 4, &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  const std::string value(512, 'x');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), value).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());

  DbStats total = db->GetStats();
  uint64_t manual_user = 0, manual_space = 0;
  for (int s = 0; s < 4; s++) {
    DbStats per = sharded->shard(s)->GetStats();
    manual_user += per.user_bytes;
    manual_space += per.space_used_bytes;
    EXPECT_GT(per.user_bytes, 0u) << "shard " << s << " got no data";
  }
  EXPECT_EQ(total.user_bytes, manual_user);
  EXPECT_EQ(total.space_used_bytes, manual_space);
  EXPECT_GT(sharded->amp_stats().user_bytes(), 0u);

  std::string prop;
  ASSERT_TRUE(db->GetProperty("iamdb.shardmap", &prop));
  EXPECT_EQ(prop, "v=1 shards=4 hash=splitmix64");
  ASSERT_TRUE(db->GetProperty("iamdb.shard-stats", &prop));
  // Each shard's section renders every emitted DbStats field, the AMT
  // mixed level included.
  for (int s = 0; s < 4; s++) {
    const size_t begin = prop.find("[shard " + std::to_string(s) + "]\n");
    ASSERT_NE(begin, std::string::npos) << prop;
    const std::string section = prop.substr(
        begin, prop.find("[shard " + std::to_string(s + 1) + "]") - begin);
    EXPECT_NE(section.find("\nmixed_level: "), std::string::npos) << section;
    EXPECT_NE(section.find("\nmixed_level_k: "), std::string::npos)
        << section;
  }
  ASSERT_TRUE(db->GetProperty("iamdb.approximate-memory-usage", &prop));
  EXPECT_GT(std::stoull(prop), 0u);
  EXPECT_FALSE(db->GetProperty("iamdb.nonsense", &prop));

  EXPECT_TRUE(db->CheckInvariants(true).ok());
}

TEST(ShardedStatsTest, ShardIteratorsPartitionTheKeyspace) {
  MemEnv env;
  Options options = MakeOptions(&env, kEngines[0]);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(ShardedDB::Open(options, "/sdb", 4, &db).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "v").ok());
  }
  auto* sharded = static_cast<ShardedDB*>(db.get());
  std::map<std::string, int> seen;
  for (int s = 0; s < 4; s++) {
    std::unique_ptr<Iterator> it(
        sharded->shard(s)->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      seen[it->key().ToString()]++;
      EXPECT_EQ(ShardOf(it->key(), 4), static_cast<uint32_t>(s));
    }
    EXPECT_TRUE(it->status().ok());
  }
  EXPECT_EQ(seen.size(), 100u);  // every key in exactly one shard
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << key;
}

// --- the plain client against a sharded server ----------------------------

class ShardedServerTest : public testing::Test {
 protected:
  static constexpr int kDbShards = 4;

  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    Options options = MakeOptions(env_.get(), kEngines[2]);
    ASSERT_TRUE(ShardedDB::Open(options, "/srv", kDbShards, &db_).ok());
    ServerOptions server_options;
    server_options.port = 0;
    server_options.num_workers = 4;
    server_ = std::make_unique<Server>(db_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  std::unique_ptr<Client> MakeClient() {
    ClientOptions options;
    options.port = server_->port();
    options.connect_retries = 1;
    return std::make_unique<Client>(options);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ShardedServerTest, ShardMapDiscovery) {
  auto client = MakeClient();
  std::string text;
  ASSERT_TRUE(client->GetProperty("iamdb.shardmap", &text).ok());
  ShardMap map;
  ASSERT_TRUE(ParseShardMap(text, &map)) << text;
  EXPECT_EQ(map.num_shards, static_cast<uint32_t>(kDbShards));
}

TEST_F(ShardedServerTest, MultiGetEdgeCases) {
  auto client = MakeClient();
  // Keys pinned to one shard of 4 (see ShardHashTest::PinnedVectors
  // tooling); the all-one-shard case must not be routed incorrectly.
  const std::vector<std::string> one_shard = {"one001", "one003", "one012",
                                              "one018", "one022"};
  for (const std::string& k : one_shard) {
    ASSERT_EQ(ShardOf(k, 4), 2u) << k;  // precondition for the case below
    ASSERT_TRUE(client->Put(k, "v-" + k).ok());
  }
  // Keys spanning every shard.
  std::vector<std::string> spanning;
  bool hit[4] = {};
  for (int i = 0; spanning.size() < 12 || !(hit[0] && hit[1] && hit[2] && hit[3]);
       i++) {
    ASSERT_LT(i, 1000);
    std::string k = Key(i);
    hit[ShardOf(k, 4)] = true;
    spanning.push_back(k);
    ASSERT_TRUE(client->Put(k, "s-" + k).ok());
  }

  std::vector<std::string> values;
  std::vector<Status> statuses;

  // Empty key set: OK, empty outputs.
  ASSERT_TRUE(client->MultiGet({}, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());

  // All keys on one shard.
  ASSERT_TRUE(client->MultiGet(one_shard, &values, &statuses).ok());
  ASSERT_EQ(values.size(), one_shard.size());
  for (size_t i = 0; i < one_shard.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << one_shard[i];
    EXPECT_EQ(values[i], "v-" + one_shard[i]);
  }

  // Keys spanning every shard, with a missing key mixed in; results must
  // come back in input order.
  std::vector<std::string> mixed = spanning;
  mixed.insert(mixed.begin() + 3, "absent-key");
  ASSERT_TRUE(client->MultiGet(mixed, &values, &statuses).ok());
  ASSERT_EQ(values.size(), mixed.size());
  for (size_t i = 0; i < mixed.size(); i++) {
    if (mixed[i] == "absent-key") {
      EXPECT_TRUE(statuses[i].IsNotFound());
    } else {
      ASSERT_TRUE(statuses[i].ok()) << mixed[i];
      EXPECT_EQ(values[i], "s-" + mixed[i]);
    }
  }
}

TEST_F(ShardedServerTest, ScanMergesAndBounds) {
  auto client = MakeClient();
  std::vector<std::string> keys;
  for (int i = 0; i < 60; i++) {
    keys.push_back(Key(i));
    ASSERT_TRUE(
        client->Put(keys.back(), std::string("v").append(std::to_string(i)))
            .ok());
  }

  // Full range: globally sorted despite per-shard storage.
  std::vector<wire::KeyValue> entries;
  bool truncated = true;
  ASSERT_TRUE(client->Scan("", "", 0, &entries, &truncated).ok());
  ASSERT_EQ(entries.size(), keys.size());
  EXPECT_FALSE(truncated);
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(entries[i].first, keys[i]);
  }

  // Bounded range.
  ASSERT_TRUE(
      client->Scan(Key(10), Key(20), 0, &entries, &truncated).ok());
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(entries.front().first, Key(10));
  EXPECT_EQ(entries.back().first, Key(19));

  // Bounds so narrow that most shards contribute nothing.
  ASSERT_TRUE(
      client->Scan(Key(7), Key(8), 0, &entries, &truncated).ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, Key(7));
  EXPECT_FALSE(truncated);

  // Empty range.
  ASSERT_TRUE(
      client->Scan("zz", "", 0, &entries, &truncated).ok());
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(truncated);

  // Limit: a correct global prefix, flagged truncated.
  ASSERT_TRUE(client->Scan("", "", 25, &entries, &truncated).ok());
  ASSERT_EQ(entries.size(), 25u);
  EXPECT_TRUE(truncated);
  for (size_t i = 0; i < entries.size(); i++) {
    EXPECT_EQ(entries[i].first, keys[i]);
  }

}

TEST_F(ShardedServerTest, TrailingScanFieldIsRefused) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Put("k", "v").ok());

  // A raw connection: Client only encodes well-formed requests.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));
  // Sends one SCAN frame and returns its response status; *rest gets the
  // payload after the status.
  std::string buffer;
  auto scan = [&](uint64_t id, const std::string& payload, std::string* rest) {
    std::string frame;
    wire::BuildFrame(id, wire::Opcode::kScan, payload, &frame);
    EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    Slice body;
    size_t consumed = 0;
    while (wire::DecodeFrame(buffer.data(), buffer.size(), &body,
                             &consumed) != wire::FrameResult::kOk) {
      char chunk[4096];
      ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) return Status::IOError("connection closed");
      buffer.append(chunk, static_cast<size_t>(got));
    }
    uint64_t resp_id;
    wire::Opcode op;
    Slice p;
    Status s = Status::Corruption("malformed response");
    if (wire::ParseBody(body, &resp_id, &op, &p) && resp_id == id &&
        wire::DecodeStatus(&p, &s)) {
      rest->assign(p.data(), p.size());
    }
    buffer.erase(0, consumed);
    return s;
  };

  // A SCAN payload is start, end and limit; one more varint after the
  // limit is malformed.
  wire::ScanRequest req;
  std::string payload;
  wire::EncodeScan(req, &payload);
  std::string trailing = payload;
  PutVarint32(&trailing, 1);
  std::string rest;
  Status s = scan(1, trailing, &rest);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // The connection stays up: the next request on it succeeds.
  ASSERT_TRUE(scan(2, payload, &rest).ok());
  wire::ScanResponse resp;
  ASSERT_TRUE(wire::DecodeScanResponse(rest, &resp));
  ASSERT_EQ(resp.entries.size(), 1u);
  EXPECT_EQ(resp.entries[0].first, "k");
  ::close(fd);
}

TEST_F(ShardedServerTest, ShardStatsOverTheWire) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Put("k", "v").ok());
  std::string text;
  ASSERT_TRUE(client->GetProperty("iamdb.shard-stats", &text).ok());
  EXPECT_NE(text.find("[shard 0]"), std::string::npos) << text;
  DbStats stats;
  ASSERT_TRUE(client->GetStats(&stats).ok());
  EXPECT_GT(stats.user_bytes, 0u);
}

}  // namespace
}  // namespace iamdb
