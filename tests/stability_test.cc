// Deterministic pacing suites (docs/TESTING.md):
//
//  * RateLimiterDeterministicTest — the token bucket driven by a simulated
//    RateClock, so refill, chunking, zero-byte requests, dynamic retune and
//    the kHigh/kLow priority bypass are all asserted on exact simulated
//    timestamps with no wall-clock sleeps.
//  * CompactionPacerTest — the control law (TargetRate), the retune
//    cadence/EWMA and the fixed-rate (min == max) case on a manual clock,
//    with exact expected rates, plus Open's checks on the pacing range.
//  * StabilityTest — seeded (IAMDB_TEST_SEED-replayable) end-to-end runs on
//    all three engines with adaptive pacing: compaction debt stays bounded,
//    no single write stalls pathologically, and the pacer actually engages.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compaction_pacer.h"
#include "core/db.h"
#include "env/mem_env.h"
#include "test_seed.h"
#include "util/random.h"
#include "util/rate_limiter.h"

namespace iamdb {
namespace {

// Simulated RateClock.  Two modes:
//  * auto-advance (default): WaitFor moves simulated time forward by the
//    requested amount and returns — single-threaded tests never block.
//  * stepped: WaitFor parks the caller (spin + yield, no sleeps) until the
//    test calls Step(); used to hold several threads waiting at once for
//    the priority-bypass and overlapping-wait assertions.
class ManualRateClock : public RateClock {
 public:
  explicit ManualRateClock(bool auto_advance = true)
      : auto_advance_(auto_advance) {}

  uint64_t NowMicros() override {
    return now_.load(std::memory_order_acquire);
  }

  void WaitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               uint64_t micros) override {
    (void)cv;
    if (auto_advance_) {
      waits_.fetch_add(1, std::memory_order_release);
      now_.fetch_add(micros, std::memory_order_release);
      return;
    }
    // Capture the generation BEFORE announcing the wait: once a test
    // observes waits() advance, this thread's Step target is already
    // pinned, so a concurrent Step cannot be missed.
    const uint64_t entry = generation_.load(std::memory_order_acquire);
    waits_.fetch_add(1, std::memory_order_release);
    lock.unlock();
    while (generation_.load(std::memory_order_acquire) == entry) {
      std::this_thread::yield();
    }
    lock.lock();
  }

  // Stepped mode: advance simulated time and release every parked waiter
  // for one predicate re-check.
  void Step(uint64_t micros) {
    now_.fetch_add(micros, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
  }

  // Number of WaitFor entries so far (counts re-waits).
  uint64_t waits() const { return waits_.load(std::memory_order_acquire); }

  // Spin (yield, no sleep) until `n` WaitFor entries happened.
  void AwaitWaiters(uint64_t n) {
    while (waits() < n) std::this_thread::yield();
  }

 private:
  const bool auto_advance_;
  std::atomic<uint64_t> now_{1000000};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> waits_{0};
};

// ---- RateLimiter on a simulated clock ----

TEST(RateLimiterDeterministicTest, RefillAccruesAtConfiguredRate) {
  ManualRateClock clock;
  RateLimiter limiter(1000000, &clock);  // 1 byte per simulated micro
  const uint64_t start = clock.NowMicros();
  limiter.Request(50000);
  // Empty bucket: the full deficit must be waited out, no more.
  EXPECT_EQ(clock.NowMicros() - start, 50000u);
  EXPECT_EQ(limiter.total_bytes(), 50000u);
  EXPECT_EQ(limiter.total_wait_micros(), 50000u);
  // A second request pays exactly its own deficit too (bucket drained).
  limiter.Request(10000);
  EXPECT_EQ(clock.NowMicros() - start, 60000u);
}

TEST(RateLimiterDeterministicTest, ZeroByteRequestIsFree) {
  ManualRateClock clock;
  RateLimiter limiter(1000, &clock);
  const uint64_t start = clock.NowMicros();
  limiter.Request(0);
  EXPECT_EQ(clock.NowMicros(), start);
  EXPECT_EQ(limiter.total_bytes(), 0u);
  EXPECT_EQ(limiter.total_wait_micros(), 0u);
}

TEST(RateLimiterDeterministicTest, BurstLargerThanBucketChunksAndCompletes) {
  ManualRateClock clock;
  RateLimiter limiter(1000000, &clock);  // burst = 100000
  const uint64_t start = clock.NowMicros();
  // 10x the bucket: must be charged in bucket-sized chunks (10 waits, one
  // per chunk) instead of deadlocking on a budget that can never accrue.
  limiter.Request(1000000);
  EXPECT_EQ(clock.NowMicros() - start, 1000000u);
  EXPECT_EQ(clock.waits(), 10u);
  EXPECT_EQ(limiter.total_bytes(), 1000000u);
}

TEST(RateLimiterDeterministicTest, SetBytesPerSecondRetunes) {
  ManualRateClock clock;
  RateLimiter limiter(1000000, &clock);
  EXPECT_EQ(limiter.bytes_per_second(), 1000000u);
  limiter.Request(100000);  // drain, costs 100ms

  limiter.SetBytesPerSecond(10000000);  // 10x the rate, burst now 1MB
  EXPECT_EQ(limiter.bytes_per_second(), 10000000u);
  uint64_t start = clock.NowMicros();
  limiter.Request(1000000);
  // Same bytes, a tenth of the simulated time.
  EXPECT_EQ(clock.NowMicros() - start, 100000u);

  limiter.SetBytesPerSecond(0);  // unpaced: requests are free now
  start = clock.NowMicros();
  limiter.Request(1ull << 30);
  EXPECT_EQ(clock.NowMicros(), start);
}

TEST(RateLimiterDeterministicTest, RetuneToUnpacedDrainsWaiters) {
  ManualRateClock clock(/*auto_advance=*/false);
  RateLimiter limiter(1000, &clock);  // 1KB/s: a 64KB chunk waits ~64s
  std::atomic<bool> done{false};
  std::thread t([&] {
    limiter.Request(64 << 10);
    done.store(true, std::memory_order_release);
  });
  clock.AwaitWaiters(1);
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  // Disabling pacing must release the parked waiter for free.
  limiter.SetBytesPerSecond(0);
  clock.Step(0);
  t.join();
  EXPECT_TRUE(done.load());
}

TEST(RateLimiterDeterministicTest, HighPriorityBypassesLowAndWallGauge) {
  ManualRateClock clock(/*auto_advance=*/false);
  RateLimiter limiter(1000000, &clock);  // burst 100000, bucket empty
  std::atomic<int> finish_counter{0};
  int low_finished_at = 0, high_finished_at = 0;

  std::thread low([&] {
    RateLimiter::ScopedPriority prio(RateLimiter::IoPriority::kLow);
    limiter.Request(60000);
    low_finished_at = finish_counter.fetch_add(1) + 1;
  });
  clock.AwaitWaiters(1);
  std::thread high([&] {
    RateLimiter::ScopedPriority prio(RateLimiter::IoPriority::kHigh);
    limiter.Request(60000);
    high_finished_at = finish_counter.fetch_add(1) + 1;
  });
  clock.AwaitWaiters(2);

  // 70000 bytes accrue: enough for one request.  The high-priority one
  // must get it — the low waiter yields while a high waiter exists, even
  // if budget would cover it.
  clock.Step(70000);
  high.join();
  EXPECT_EQ(high_finished_at, 1);
  EXPECT_FALSE(low_finished_at > 0);

  // The leftover 10000 plus 50000 more releases the low request.
  clock.AwaitWaiters(3);  // low re-parked after losing the race
  clock.Step(50000);
  low.join();
  EXPECT_EQ(low_finished_at, 2);

  // Per-thread waits sum (70000 + 120000); the wall gauge counts the
  // overlapping interval once.
  EXPECT_EQ(limiter.total_wait_micros(), 190000u);
  EXPECT_EQ(limiter.total_paced_wall_micros(), 120000u);
}

// ---- CompactionPacer control law + cadence ----

PacingOptions TestPacing() {
  PacingOptions p;
  p.min_bytes_per_sec = 4 << 20;
  p.max_bytes_per_sec = 100 << 20;
  p.debt_low_bytes = 10 << 20;
  p.debt_high_bytes = 50 << 20;
  p.retune_interval_micros = 100000;
  p.headroom = 1.25;
  return p;
}

TEST(CompactionPacerTest, TargetRateLaw) {
  ManualRateClock clock;
  PacingOptions p = TestPacing();
  RateLimiter limiter(p.min_bytes_per_sec, &clock);
  CompactionPacer pacer(p, &limiter, &clock);

  // Idle: the floor.
  EXPECT_EQ(pacer.TargetRate(0, 0), p.min_bytes_per_sec);
  // Low debt: ingest * headroom, clamped to [min, max].
  EXPECT_EQ(pacer.TargetRate(16 << 20, 0), 20u << 20);
  EXPECT_EQ(pacer.TargetRate(1 << 20, 0), p.min_bytes_per_sec);
  EXPECT_EQ(pacer.TargetRate(1ull << 40, 0), p.max_bytes_per_sec);
  // High debt: fully open regardless of ingest.
  EXPECT_EQ(pacer.TargetRate(0, p.debt_high_bytes), p.max_bytes_per_sec);
  EXPECT_EQ(pacer.TargetRate(0, 1ull << 40), p.max_bytes_per_sec);
  // Between the watermarks: monotone in debt, strictly between the
  // endpoints.
  uint64_t prev = pacer.TargetRate(16 << 20, p.debt_low_bytes);
  EXPECT_EQ(prev, 20u << 20);
  for (uint64_t debt = p.debt_low_bytes + (1 << 20);
       debt < p.debt_high_bytes; debt += 8 << 20) {
    uint64_t rate = pacer.TargetRate(16 << 20, debt);
    EXPECT_GT(rate, prev);
    EXPECT_LT(rate, p.max_bytes_per_sec);
    prev = rate;
  }
}

TEST(CompactionPacerTest, RetuneCadenceAndEwma) {
  ManualRateClock clock;
  PacingOptions p = TestPacing();
  RateLimiter limiter(p.min_bytes_per_sec, &clock);
  CompactionPacer pacer(p, &limiter, &clock);

  // Within the interval: no retune, whatever the inputs.
  pacer.RecordIngest(1 << 20);
  EXPECT_FALSE(pacer.RetuneDue());
  pacer.MaybeRetune(1ull << 40);
  EXPECT_EQ(pacer.retunes(), 0u);
  EXPECT_EQ(limiter.bytes_per_second(), p.min_bytes_per_sec);

  // One interval later: 1MB over 100ms = 10MB/s window rate, EWMA from 0
  // gives 5MB/s, and with low debt the budget is 5MB/s * 1.25 = 6.25MB/s.
  clock.Step(p.retune_interval_micros);
  EXPECT_TRUE(pacer.RetuneDue());
  pacer.MaybeRetune(0);
  EXPECT_EQ(pacer.retunes(), 1u);
  EXPECT_EQ(pacer.ingest_rate(), (10u << 20) / 2);
  EXPECT_EQ(limiter.bytes_per_second(),
            static_cast<uint64_t>((10ull << 20) / 2 * 1.25));

  // Debt at the high watermark opens the budget fully.
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(p.debt_high_bytes);
  EXPECT_EQ(pacer.retunes(), 2u);
  EXPECT_EQ(limiter.bytes_per_second(), p.max_bytes_per_sec);
  EXPECT_EQ(pacer.current_rate(), p.max_bytes_per_sec);

  // Unchanged target: no spurious retune is counted.
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(p.debt_high_bytes);
  EXPECT_EQ(pacer.retunes(), 2u);
}

// Regression for the pacing death spiral: compaction needs ingest times
// write-amplification of bandwidth, so budgeting from measured ingest
// alone starves merges, which stalls writes, which lowers measured
// ingest, which spirals the budget to the floor.  Once debt passes the
// low watermark, a saturated limiter (paced-wall time covering most of a
// retune window) must escalate the budget multiplicatively until
// compaction is no longer limiter-bound, then settle back to the law.
TEST(CompactionPacerTest, SaturatedDemandEscalatesBudget) {
  ManualRateClock clock;  // auto-advance: waits move simulated time
  PacingOptions p = TestPacing();
  RateLimiter limiter(p.min_bytes_per_sec, &clock);
  CompactionPacer pacer(p, &limiter, &clock);

  // Offer one interval's worth of budget at the floor rate with an empty
  // bucket: the limiter blocks for the whole interval (simulated).  With
  // debt above the low watermark, the budget must escalate (x1.5) despite
  // zero ingest.
  limiter.Request(p.min_bytes_per_sec / 10);
  EXPECT_TRUE(pacer.RetuneDue());
  pacer.MaybeRetune(p.debt_low_bytes + 1);
  EXPECT_EQ(limiter.bytes_per_second(), p.min_bytes_per_sec * 3 / 2);
  EXPECT_EQ(pacer.retunes(), 1u);

  // Still saturated at the escalated rate: escalates again.
  limiter.Request(limiter.bytes_per_second() / 10);
  pacer.MaybeRetune(p.debt_low_bytes + 1);
  const uint64_t escalated = p.min_bytes_per_sec * 9 / 4;
  EXPECT_EQ(limiter.bytes_per_second(), escalated);
  EXPECT_EQ(pacer.retunes(), 2u);

  // Idle window (no ingest, no demand, low debt): no signal, so the
  // learned budget is kept rather than decayed back toward the floor.
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(0);
  EXPECT_EQ(limiter.bytes_per_second(), escalated);
  EXPECT_EQ(pacer.retunes(), 2u);

  // Light load with no saturation: the law pulls the budget back down
  // toward the decayed demand EWMA.
  pacer.RecordIngest(1 << 20);
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(0);
  EXPECT_LT(limiter.bytes_per_second(), escalated);
  EXPECT_GE(limiter.bytes_per_second(), p.min_bytes_per_sec);
  EXPECT_EQ(pacer.retunes(), 3u);
}

// min == max is a fixed rate: the law and the x1.5 escalation both clamp
// to max, so no window — saturated, idle or at the high watermark — moves
// the budget.
TEST(CompactionPacerTest, FixedRateHoldsBudget) {
  ManualRateClock clock;  // auto-advance: waits move simulated time
  PacingOptions p = TestPacing();
  p.min_bytes_per_sec = 32 << 20;
  p.max_bytes_per_sec = 32 << 20;
  RateLimiter limiter(p.max_bytes_per_sec, &clock);
  CompactionPacer pacer(p, &limiter, &clock);

  // Saturated: one interval's worth of budget on an empty bucket blocks
  // the limiter for the whole window, with heavy ingest and high debt.
  pacer.RecordIngest(64 << 20);
  limiter.Request(p.max_bytes_per_sec / 10);
  EXPECT_TRUE(pacer.RetuneDue());
  pacer.MaybeRetune(1ull << 40);
  EXPECT_EQ(limiter.bytes_per_second(), p.max_bytes_per_sec);
  EXPECT_EQ(pacer.retunes(), 0u);

  // Idle: no ingest, no demand, no debt.
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(0);
  EXPECT_EQ(limiter.bytes_per_second(), p.max_bytes_per_sec);
  EXPECT_EQ(pacer.retunes(), 0u);

  // Light ingest with debt exactly at the high watermark.
  pacer.RecordIngest(1 << 20);
  clock.Step(p.retune_interval_micros);
  pacer.MaybeRetune(p.debt_high_bytes);
  EXPECT_EQ(limiter.bytes_per_second(), p.max_bytes_per_sec);
  EXPECT_EQ(pacer.retunes(), 0u);
}

// Pacing is on iff max > 0, and then needs 0 < min <= max.
TEST(CompactionPacerTest, OpenValidatesRange) {
  MemEnv env;
  Options options;
  options.env = &env;
  std::unique_ptr<DB> db;
  options.pacing.min_bytes_per_sec = 0;
  options.pacing.max_bytes_per_sec = 32 << 20;
  EXPECT_TRUE(DB::Open(options, "/pacing", &db).IsInvalidArgument());
  options.pacing.min_bytes_per_sec = 64 << 20;
  EXPECT_TRUE(DB::Open(options, "/pacing", &db).IsInvalidArgument());
  // min == max: a fixed rate the bucket starts at and keeps.
  options.pacing.min_bytes_per_sec = 32 << 20;
  ASSERT_TRUE(DB::Open(options, "/pacing", &db).ok());
  EXPECT_EQ(db->GetStats().pacer_rate_bytes_per_sec, 32u << 20);
}

// ---- Seeded multi-engine stability ----

struct EngineSpec {
  const char* name;
  EngineType engine;
  AmtPolicy policy;
};

class StabilityTest : public ::testing::TestWithParam<EngineSpec> {};

TEST_P(StabilityTest, AdaptivePacingBoundsDebtAndStalls) {
  const uint64_t seed = test::TestSeed(20260807);
  SCOPED_TRACE(test::SeedTrace(seed));
  const EngineSpec& spec = GetParam();

  MemEnv env;
  Options options;
  options.env = &env;
  options.engine = spec.engine;
  options.amt.policy = spec.policy;
  options.node_capacity = 64 << 10;
  options.table.block_size = 1024;
  options.amt.fanout = 4;
  options.leveled.target_file_size = 32 << 10;
  options.leveled.max_bytes_level1 = 5 * (64 << 10);
  options.background_threads = 2;
  options.max_subcompactions = 2;
  options.block_cache_capacity = 8 << 20;
  options.pacing.min_bytes_per_sec = 2 << 20;
  options.pacing.max_bytes_per_sec = 1 << 30;
  options.pacing.debt_low_bytes = 256 << 10;
  options.pacing.debt_high_bytes = 1 << 20;
  options.pacing.retune_interval_micros = 10000;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/stability", &db).ok());

  const uint64_t kOps = 6000;
  const uint64_t kKeySpace = kOps / 2;
  // Debt may overshoot debt_high while the opened budget catches up; what
  // adaptive pacing must prevent is unbounded growth.  One extra
  // high-watermark of slack plus a handful of in-flight nodes is a bound
  // that holds with wide margin when the controller works and fails
  // quickly if it never opens the budget.
  const uint64_t kDebtBound =
      2 * options.pacing.debt_high_bytes + 8 * options.node_capacity;
  const uint64_t kMaxPutMicros = 2 * 1000 * 1000;

  Random64 rnd(seed);
  const std::string value(512, 'v');
  char key[32];
  uint64_t max_put_micros = 0;
  for (uint64_t i = 0; i < kOps; i++) {
    std::snprintf(key, sizeof(key), "user%012llu",
                  static_cast<unsigned long long>(rnd.Uniform(kKeySpace)));
    const auto put_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    const uint64_t put_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - put_start)
            .count();
    max_put_micros = std::max(max_put_micros, put_micros);
    if (i % 128 == 0) {
      DbStats stats = db->GetStats();
      EXPECT_LT(stats.pending_debt_bytes, kDebtBound)
          << "debt unbounded at op " << i;
      EXPECT_GE(stats.pacer_rate_bytes_per_sec,
                options.pacing.min_bytes_per_sec);
      EXPECT_LE(stats.pacer_rate_bytes_per_sec,
                options.pacing.max_bytes_per_sec);
    }
  }
  EXPECT_LT(max_put_micros, kMaxPutMicros)
      << "a single write stalled " << max_put_micros << "us";

  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->WaitForQuiescence().ok());
  EXPECT_TRUE(db->CheckInvariants(/*quiescent=*/true).ok());

  DbStats stats = db->GetStats();
  // ~3MB of ingest across many retune intervals: the controller must have
  // engaged, and quiescence means the debt signal drained.
  EXPECT_GT(stats.pacer_retunes, 0u);
  EXPECT_EQ(stats.pending_debt_bytes, 0u);
  // Reads still see every key written (spot check via the newest key).
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), key, &got).ok());
  EXPECT_EQ(got, value);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, StabilityTest,
    ::testing::Values(
        EngineSpec{"leveled", EngineType::kLeveled, AmtPolicy::kIam},
        EngineSpec{"lsa", EngineType::kAmt, AmtPolicy::kLsa},
        EngineSpec{"iam", EngineType::kAmt, AmtPolicy::kIam}),
    [](const ::testing::TestParamInfo<EngineSpec>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace iamdb
