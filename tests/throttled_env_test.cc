// ThrottledEnv: wall time must track modeled device time at the configured
// scale, the shared single-server queue must serialize concurrent I/O, the
// device must charge exactly what CountingEnv counts at DeviceModel prices,
// and a throttled DB must behave identically (just slower).
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/counting_env.h"
#include "env/mem_env.h"
#include "env/throttled_env.h"
#include "stats/device_model.h"

namespace iamdb {
namespace {

TEST(ThrottledEnvTest, ChargesTrackModeledCosts) {
  MemEnv mem;
  DeviceProfile profile = DeviceProfile::HDD();
  ThrottledEnv env(&mem, profile, /*time_scale=*/1e-6);  // effectively free

  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(1 << 20, 'x'), "/f", false).ok());
  // One 1MB write: bandwidth cost ~6.7ms at 150MB/s (plus dispatch share).
  uint64_t after_write = env.charged_micros();
  EXPECT_GE(after_write, 6000u);
  EXPECT_LE(after_write, 10000u);

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());
  char scratch[4096];
  Slice result;
  ASSERT_TRUE(file->Read(0, 4096, &result, scratch).ok());
  // One positional read: ~ one 8ms seek.
  EXPECT_GE(env.charged_micros() - after_write, 8000u);
}

TEST(ThrottledEnvTest, WallTimeScalesWithCharges) {
  MemEnv mem;
  // 10ms of modeled time per positional read at scale 0.05 -> 400us each.
  ThrottledEnv env(&mem, DeviceProfile::HDD(), 0.05);
  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(64 << 10, 'x'), "/f", false).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());

  uint64_t t0 = Env::Default()->NowMicros();
  char scratch[4096];
  Slice result;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(file->Read((i * 4096) % (60 << 10), 4096, &result, scratch).ok());
  }
  uint64_t wall = Env::Default()->NowMicros() - t0;
  // 20 seeks x 8ms x 0.05 = 8ms minimum.
  EXPECT_GE(wall, 7000u);
}

TEST(ThrottledEnvTest, SingleServerSerializesThreads) {
  MemEnv mem;
  ThrottledEnv env(&mem, DeviceProfile::HDD(), 0.05);
  ASSERT_TRUE(
      WriteStringToFile(&env, std::string(64 << 10, 'x'), "/f", false).ok());

  // Two threads x 10 seeks each: a shared device takes ~2x one thread's
  // time, not ~1x (which independent sleeping would give).
  auto reader_work = [&env] {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());
    char scratch[4096];
    Slice result;
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(file->Read(i * 4096, 4096, &result, scratch).ok());
    }
  };
  uint64_t t0 = Env::Default()->NowMicros();
  std::thread a(reader_work), b(reader_work);
  a.join();
  b.join();
  uint64_t wall = Env::Default()->NowMicros() - t0;
  // 20 seeks x 8ms x 0.05 = 8ms serialized; independent threads would
  // finish in ~4ms.
  EXPECT_GE(wall, 7000u);
}

// Charges below one scaled microsecond must still queue: 20k 64-byte HDD
// Appends cost 125.4 modeled us each, 0.42us at 1/300, and a read issued
// after them waits until the device has worked through all of them.
TEST(ThrottledEnvTest, SubMicrosecondChargesQueue) {
  MemEnv mem;
  const DeviceModel model(DeviceProfile::HDD());
  const double kScale = 1.0 / 300;
  ThrottledEnv env(&mem, model.profile(), kScale);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  const std::string record(64, 'x');
  const int kAppends = 20000;

  const uint64_t t0 = Env::Default()->NowMicros();
  for (int i = 0; i < kAppends; i++) ASSERT_TRUE(file->Append(record).ok());
  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &reader).ok());
  char scratch[64];
  Slice result;
  ASSERT_TRUE(reader->Read(0, 64, &result, scratch).ok());
  const uint64_t wall = Env::Default()->NowMicros() - t0;

  const double modeled =
      kAppends * model.WriteMicros(1, 64) + model.ReadMicros(1, 64);
  EXPECT_NEAR(modeled, env.charged_micros(), 1e-9 * modeled);
  // The read sleeps until its completion unless that is within 100us.
  EXPECT_GE(static_cast<double>(wall) + 101, modeled * kScale);
}

Options SmallAmtOptions(Env* env) {
  Options options;
  options.env = env;
  options.engine = EngineType::kAmt;
  options.node_capacity = 16 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  return options;
}

std::string TestKey(int i) {
  char key[32];
  snprintf(key, sizeof(key), "key%06d", i);
  return key;
}

// The pricing identity: a DB over a CountingEnv stacked on the throttle is
// charged exactly DeviceModel::TotalMicros of what the CountingEnv counted,
// plus one seek per sync.  The run covers a multi-segment ReadV (a cold
// MultiGet of adjacent keys) and sequential reads (WAL and manifest
// recovery on reopen).
TEST(ThrottledEnvTest, ChargesTotalMicrosOfCountedIo) {
  MemEnv mem;
  const DeviceProfile profile = DeviceProfile::HDD();
  ThrottledEnv device(&mem, profile, /*time_scale=*/1e-9);  // never sleeps
  IoStats counted;
  CountingEnv env(&device, &counted);
  const Options options = SmallAmtOptions(&env);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  for (int i = 0; i < 100; i++) {  // left in the WAL for recovery
    ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), std::string(50, 'w')).ok());
  }
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  std::vector<std::string> keys;
  for (int i = 2000; i < 2064; i++) keys.push_back(TestKey(i));
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  db->MultiGet(ReadOptions(), slices.size(), slices.data(), values.data(),
               statuses.data());
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_GT(db->GetStats().multiget_coalesced_reads, 0u);
  db.reset();

  const IoStatsSnapshot io = counted.Snapshot();
  ASSERT_GT(io.fsyncs, 0u);
  const double expected = DeviceModel(profile).TotalMicros(io) +
                          io.fsyncs * profile.seek_latency_us;
  EXPECT_NEAR(expected, device.charged_micros(), 1e-9 * expected);
}

// The DB's own CountingEnv above the throttle feeds the thread's OpIoScope;
// the throttle must not feed it again.  A cold Get reads the same seeks and
// bytes with and without the throttle underneath.
TEST(ThrottledEnvTest, OpIoScopeRecordsEachReadOnce) {
  auto cold_get = [](Env* env) {
    const Options options = SmallAmtOptions(env);
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
    for (int i = 0; i < 500; i++) {
      EXPECT_TRUE(
          db->Put(WriteOptions(), TestKey(i), std::string(100, 'v')).ok());
    }
    EXPECT_TRUE(db->FlushAll().ok());
    EXPECT_TRUE(db->WaitForQuiescence().ok());
    db.reset();
    EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
    const uint64_t reads_before = db->GetStats().io.read_ops;
    OpIoScope scope;
    std::string value;
    EXPECT_TRUE(db->Get(ReadOptions(), TestKey(250), &value).ok());
    EXPECT_EQ(db->GetStats().io.read_ops - reads_before,
              scope.context().seeks);
    return scope.context();
  };
  MemEnv plain;
  const OpIoContext unthrottled = cold_get(&plain);
  MemEnv mem;
  ThrottledEnv device(&mem, DeviceProfile::SSD(), /*time_scale=*/1e-9);
  const OpIoContext throttled = cold_get(&device);
  EXPECT_GT(unthrottled.seeks, 0u);
  EXPECT_EQ(unthrottled.seeks, throttled.seeks);
  EXPECT_EQ(unthrottled.bytes_read, throttled.bytes_read);
}

TEST(ThrottledEnvTest, DbWorksEndToEndWhenThrottled) {
  MemEnv mem;
  ThrottledEnv device(&mem, DeviceProfile::SSD(), 0.01);
  const Options options = SmallAmtOptions(&device);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), TestKey(i * 37 % 2000), std::string(100, 'v'))
            .ok());
  }
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  ASSERT_TRUE(db->CheckInvariants(true).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key000370", &value).ok());
  EXPECT_GT(device.charged_micros(), 0u);
}

}  // namespace
}  // namespace iamdb
