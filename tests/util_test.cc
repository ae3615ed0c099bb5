// Unit tests for the util substrate: slices, status, coding, crc32c, hash,
// random, arena, histogram, thread pool.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/arena.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/crc32c_internal.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iamdb {
namespace {

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hx"));

  s.remove_prefix(2);
  EXPECT_EQ("llo", s.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("a").compare(Slice("ab")), 0);   // prefix sorts first
  EXPECT_GT(Slice("ab").compare(Slice("a")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  EXPECT_TRUE(Slice("a") < Slice("b"));
}

TEST(SliceTest, EmbeddedNul) {
  std::string with_nul("a\0b", 3);
  Slice s(with_nul);
  EXPECT_EQ(3u, s.size());
  EXPECT_EQ(with_nul, s.ToString());
}

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ("OK", s.ToString());
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status nf = Status::NotFound("key", "missing");
  EXPECT_FALSE(nf.ok());
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ("NotFound: key: missing", nf.ToString());

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::Corruption("bad block");
  Status b = a;
  EXPECT_TRUE(b.IsCorruption());
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v += 7777) {
    PutFixed32(&s, v);
  }
  Slice input(s);
  for (uint32_t v = 0; v < 100000; v += 7777) {
    uint32_t actual;
    ASSERT_TRUE(GetFixed32(&input, &actual));
    EXPECT_EQ(v, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string s;
  std::vector<uint64_t> values;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    values.insert(values.end(), {v - 1, v, v + 1});
  }
  for (uint64_t v : values) PutFixed64(&s, v);
  Slice input(s);
  for (uint64_t v : values) {
    uint64_t actual;
    ASSERT_TRUE(GetFixed64(&input, &actual));
    EXPECT_EQ(v, actual);
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t v = (i / 32) << (i % 32);
    PutVarint32(&s, v);
  }
  Slice input(s);
  for (uint32_t i = 0; i < (32 * 32); i++) {
    uint32_t expected = (i / 32) << (i % 32);
    uint32_t actual;
    ASSERT_TRUE(GetVarint32(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::vector<uint64_t> values = {0, 100, ~0ull, ~0ull - 1};
  for (uint32_t k = 0; k < 64; k++) {
    const uint64_t power = 1ull << k;
    values.insert(values.end(), {power, power - 1, power + 1});
  }
  std::string s;
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice input(s);
  for (uint64_t v : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(v, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len < s.size() - 1; len++) {
    Slice input(s.data(), len);
    EXPECT_FALSE(GetVarint32(&input, &result));
  }
  Slice input(s);
  EXPECT_TRUE(GetVarint32(&input, &result));
  EXPECT_EQ(large_value, result);
}

TEST(CodingTest, Varint32Overflow) {
  uint32_t result;
  std::string input("\x81\x82\x83\x84\x85\x11");
  Slice s(input);
  EXPECT_FALSE(GetVarint32(&s, &result));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice(std::string(10000, 'x')));
  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(10000, 'x'), v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

TEST(CodingTest, VarintLength) {
  EXPECT_EQ(1, VarintLength(0));
  EXPECT_EQ(1, VarintLength(127));
  EXPECT_EQ(2, VarintLength(128));
  EXPECT_EQ(5, VarintLength(0xffffffffull));
  EXPECT_EQ(10, VarintLength(~0ull));
}

TEST(Crc32cTest, StandardVectors) {
  // From the CRC32C spec (RFC 3720 appendix / SCTP test vectors), through
  // the public entry point and each kernel this CPU can run.
  std::vector<uint32_t (*)(uint32_t, const char*, size_t)> kernels = {
      crc32c::Extend, crc32c::internal::ExtendPortable};
  if (crc32c::internal::HardwareAvailable()) {
    kernels.push_back(crc32c::internal::ExtendHardware);
  }
  char buf[32];
  for (auto extend : kernels) {
    memset(buf, 0, sizeof(buf));
    EXPECT_EQ(0x8a9136aau, extend(0, buf, sizeof(buf)));

    memset(buf, 0xff, sizeof(buf));
    EXPECT_EQ(0x62a8ab43u, extend(0, buf, sizeof(buf)));

    for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
    EXPECT_EQ(0x46dd794eu, extend(0, buf, sizeof(buf)));

    for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
    EXPECT_EQ(0x113fdb5cu, extend(0, buf, sizeof(buf)));
  }
}

// The hardware kernel must produce the portable kernel's bytes for every
// length, alignment, starting CRC and split, or on-disk checksums would
// depend on the CPU that wrote them.
class Crc32cKernelTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!crc32c::internal::HardwareAvailable()) {
      GTEST_SKIP() << "CPU lacks SSE4.2: only the portable kernel runs";
    }
    Random rnd(3720);
    data_.resize(65536 + 8);
    for (char& c : data_) c = static_cast<char>(rnd.Uniform(256));
  }

  std::string data_;
};

TEST_F(Crc32cKernelTest, HardwareMatchesPortable) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 2048; n++) lengths.push_back(n);
  // Each side of a whole three-stripe round (inside the range above): the
  // join of the three streams, the last round and the tail all run.
  const size_t stripe = crc32c::internal::kStripe;
  for (size_t n : {3 * stripe - 1, 3 * stripe, 3 * stripe + 1}) {
    lengths.push_back(n);
  }
  // One 4 KB table block plus its 5-byte trailer, and long buffers.
  for (size_t n : {4101, 16704, 65536}) lengths.push_back(n);
  for (uint32_t init : {0u, 0xdeadbeefu}) {
    for (size_t offset = 0; offset < 8; offset++) {
      for (size_t n : lengths) {
        const char* p = data_.data() + offset;
        ASSERT_EQ(crc32c::internal::ExtendPortable(init, p, n),
                  crc32c::internal::ExtendHardware(init, p, n))
            << "init " << init << " offset " << offset << " length " << n;
      }
    }
  }
}

TEST_F(Crc32cKernelTest, ExtendAtEveryCutPoint) {
  const size_t n = 1044;  // one WAL record
  const uint32_t whole = crc32c::internal::ExtendPortable(0, data_.data(), n);
  for (size_t cut = 0; cut <= n; cut++) {
    for (auto extend :
         {crc32c::internal::ExtendPortable, crc32c::internal::ExtendHardware}) {
      uint32_t crc = extend(0, data_.data(), cut);
      ASSERT_EQ(whole, extend(crc, data_.data() + cut, n - cut))
          << "cut " << cut;
    }
  }
  EXPECT_EQ(whole, crc32c::Value(data_.data(), n));
}

TEST(Crc32cTest, Values) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("foo", 3));
}

TEST(Crc32cTest, Extend) {
  EXPECT_EQ(crc32c::Value("hello world", 11),
            crc32c::Extend(crc32c::Value("hello ", 6), "world", 5));
}

TEST(Crc32cTest, MaskUnmask) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Unmask(crc32c::Mask(crc32c::Mask(crc)))));
}

TEST(HashTest, SignedUnsignedIssue) {
  const uint8_t data1[1] = {0x62};
  const uint8_t data2[2] = {0xc3, 0x97};
  const uint8_t data3[3] = {0xe2, 0x99, 0xa5};
  const uint8_t data4[4] = {0xe1, 0x80, 0xb9, 0x32};
  // Hash must treat bytes as unsigned: distinct results, stable across runs.
  uint32_t h1 = Hash(reinterpret_cast<const char*>(data1), 1, 0xbc9f1d34);
  uint32_t h2 = Hash(reinterpret_cast<const char*>(data2), 2, 0xbc9f1d34);
  uint32_t h3 = Hash(reinterpret_cast<const char*>(data3), 3, 0xbc9f1d34);
  uint32_t h4 = Hash(reinterpret_cast<const char*>(data4), 4, 0xbc9f1d34);
  std::set<uint32_t> distinct = {h1, h2, h3, h4};
  EXPECT_EQ(4u, distinct.size());
  EXPECT_EQ(h1, Hash(reinterpret_cast<const char*>(data1), 1, 0xbc9f1d34));
}

TEST(RandomTest, Deterministic) {
  Random a(301), b(301);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(42);
  for (int i = 0; i < 1000; i++) {
    uint32_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Random64Test, DeterministicAndSpread) {
  Random64 a(7), b(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) {
    uint64_t v = a.Next();
    EXPECT_EQ(v, b.Next());
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 990u);  // essentially no collisions
}

TEST(Random64Test, NextDoubleRange) {
  Random64 r(99);
  for (int i = 0; i < 1000; i++) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ArenaTest, Empty) { Arena arena; }

TEST(ArenaTest, ManyAllocationsStayReadable) {
  std::vector<std::pair<size_t, char*>> allocated;
  Arena arena;
  const int N = 10000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < N; i++) {
    size_t s;
    if (i % (N / 10) == 0) {
      s = i;
    } else {
      s = rnd.OneIn(4000) ? rnd.Uniform(6000)
                          : (rnd.OneIn(10) ? rnd.Uniform(100) : rnd.Uniform(20));
    }
    if (s == 0) s = 1;
    char* r = (rnd.OneIn(10) ? arena.AllocateAligned(s) : arena.Allocate(s));
    for (size_t b = 0; b < s; b++) {
      r[b] = static_cast<char>(i % 256);
    }
    bytes += s;
    allocated.push_back(std::make_pair(s, r));
    ASSERT_GE(arena.MemoryUsage(), bytes);
  }
  for (size_t i = 0; i < allocated.size(); i++) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; b++) {
      EXPECT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

TEST(ArenaTest, AlignedAllocationsAreAligned) {
  Arena arena;
  for (int i = 1; i < 100; i++) {
    char* p = arena.AllocateAligned(i);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % 8);
  }
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(0u, h.Count());
  EXPECT_EQ(0.0, h.Average());
  EXPECT_EQ(0.0, h.Percentile(99));
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(1u, h.Count());
  EXPECT_DOUBLE_EQ(42.0, h.Average());
  EXPECT_NEAR(42.0, h.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(42.0, h.Max());
  EXPECT_DOUBLE_EQ(42.0, h.Min());
}

TEST(HistogramTest, PercentilesOfUniformStream) {
  Histogram h;
  for (int i = 1; i <= 10000; i++) h.Add(i);
  // Bucketing is ~4.5% wide; percentiles must land within that tolerance.
  EXPECT_NEAR(5000, h.Percentile(50), 5000 * 0.06);
  EXPECT_NEAR(9900, h.Percentile(99), 9900 * 0.06);
  EXPECT_DOUBLE_EQ(10000, h.Max());
  EXPECT_NEAR(5000.5, h.Average(), 0.01);
}

TEST(HistogramTest, MergeCombinesStreams) {
  Histogram a, b;
  for (int i = 1; i <= 1000; i++) a.Add(i);
  for (int i = 1001; i <= 2000; i++) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(2000u, a.Count());
  EXPECT_NEAR(1000, a.Percentile(50), 1000 * 0.06);
  EXPECT_DOUBLE_EQ(2000, a.Max());
  EXPECT_DOUBLE_EQ(1, a.Min());
}

TEST(HistogramTest, StandardDeviation) {
  Histogram h;
  for (int i = 0; i < 100; i++) h.Add(10.0);
  EXPECT_NEAR(0.0, h.StandardDeviation(), 1e-9);
  h.Add(1000.0);
  EXPECT_GT(h.StandardDeviation(), 0.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(pool.Schedule([&count] { count.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(1000, count.load());
}

TEST(ThreadPoolTest, TasksCanScheduleMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.Schedule([&pool, &count] {
    count.fetch_add(1);
    for (int i = 0; i < 10; i++) {
      EXPECT_TRUE(pool.Schedule([&count] { count.fetch_add(1); }));
    }
  }));
  pool.WaitIdle();
  EXPECT_EQ(11, count.load());
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.WaitIdle();  // must not hang
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; i++) {
      EXPECT_TRUE(pool.Schedule([&count] { count.fetch_add(1); }));
    }
  }
  EXPECT_EQ(100, count.load());
}

// Schedule during shutdown is a defined no-op: it returns false and drops
// the work instead of racing pool destruction (the server drain path
// relies on this being well-defined in release builds).
TEST(ThreadPoolTest, ScheduleDuringShutdownIsRejected) {
  std::atomic<bool> rejected_seen{false};
  std::atomic<int> noops_accepted{0};
  {
    ThreadPool pool(1);
    // The task occupies the single worker and keeps scheduling until the
    // destructor (running concurrently on the main thread) flips the pool
    // into shutdown and Schedule starts returning false.
    EXPECT_TRUE(pool.Schedule([&] {
      while (pool.Schedule([&noops_accepted] { noops_accepted++; })) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      rejected_seen.store(true);
    }));
  }  // ~ThreadPool: sets shutting_down_, then drains the queue and joins
  EXPECT_TRUE(rejected_seen.load());
}

}  // namespace
}  // namespace iamdb
