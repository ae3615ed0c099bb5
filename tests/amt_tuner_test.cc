// ChooseMixedLevel edge cases (core/amt/amt_tuner.h): the paper's Eq. 1-2
// selection of the mixed level (m) and its sequence bound (k) from the
// cache budget.  Largest m wins, then largest k.
#include "core/amt/amt_tuner.h"

#include "gtest/gtest.h"

namespace iamdb {
namespace {

TEST(AmtTunerTest, EmptyTreeIsAllAppend) {
  // No levels yet: everything fits, m = 1 (= n + 1) with the max k.
  MixedLevelChoice c = ChooseMixedLevel({}, 10, 3, 0);
  EXPECT_EQ(c.m, 1);
  EXPECT_EQ(c.k, 3);
  c = ChooseMixedLevel({}, 10, 7, 64 << 20);
  EXPECT_EQ(c.m, 1);
  EXPECT_EQ(c.k, 7);
}

TEST(AmtTunerTest, ZeroBudgetDegeneratesToMergeEverywhere) {
  // Nothing can be cached: m = 1, k = 1 (the classic LSM shape).  k = 1 at
  // m = 1 always satisfies Eq. 2 — S(1,1) = 0 and there are no levels
  // above the mixed level — so no budget is ever "too small to answer".
  MixedLevelChoice c = ChooseMixedLevel({1000, 10000}, 10, 3, 0);
  EXPECT_EQ(c.m, 1);
  EXPECT_EQ(c.k, 1);
}

TEST(AmtTunerTest, BudgetBelowL1StillPicksL1) {
  // Budget smaller than D_1: m = 2 is unaffordable (its upper set is D_1),
  // and at m = 1 the budget only limits k via S(1,k) = D_1 * (k-1) / t.
  // budget 500 < D_1 = 1000; S(1,2) = 100 < 500 so k = 3 fits (S = 200).
  MixedLevelChoice c = ChooseMixedLevel({1000, 10000}, 10, 3, 500);
  EXPECT_EQ(c.m, 1);
  EXPECT_EQ(c.k, 3);
  // Tighter: budget 150 only affords k = 2 (S = 100 <= 150 < 200).
  c = ChooseMixedLevel({1000, 10000}, 10, 3, 150);
  EXPECT_EQ(c.m, 1);
  EXPECT_EQ(c.k, 2);
}

TEST(AmtTunerTest, WholeTreeInBudgetIsLsaShape) {
  // Budget covers every level: m = n + 1 (all levels append; LSA limit).
  MixedLevelChoice c = ChooseMixedLevel({1000, 10000}, 10, 3, 11000);
  EXPECT_EQ(c.m, 3);
  EXPECT_EQ(c.k, 3);
}

TEST(AmtTunerTest, MaxKClamp) {
  // A huge budget never exceeds max_k, even when far larger k would fit.
  MixedLevelChoice c = ChooseMixedLevel({1000}, 10, 4, 1ull << 40);
  EXPECT_EQ(c.m, 2);  // n + 1: all-append
  EXPECT_EQ(c.k, 4);
  c = ChooseMixedLevel({1000}, 10, 1, 1ull << 40);
  EXPECT_EQ(c.k, 1);
}

TEST(AmtTunerTest, LargestMPreferredOverLargerK) {
  // D = {100, 1000}, t = 10, budget 150.  m = 3 needs 1100 (no); m = 2
  // needs D_1 = 100 plus S(2,k) = 1000(k-1)/10: k = 1 fits exactly
  // (100 <= 150).  The tuner must not fall back to m = 1 with k = 3 even
  // though that also fits — larger m wins first.
  MixedLevelChoice c = ChooseMixedLevel({100, 1000}, 10, 3, 150);
  EXPECT_EQ(c.m, 2);
  EXPECT_EQ(c.k, 1);
}

TEST(AmtTunerTest, BudgetGrowthDeepensTheMixedLevel) {
  // A larger memory budget M never yields a shallower (m, k): walk the
  // same tree through increasing budgets.
  const std::vector<uint64_t> tree = {1000, 10000, 100000};
  int last_m = 0, last_k = 0;
  for (uint64_t budget : {0ull, 200ull, 1200ull, 13000ull, 111000ull}) {
    MixedLevelChoice c = ChooseMixedLevel(tree, 10, 3, budget);
    EXPECT_GE(c.m * 100 + c.k, last_m * 100 + last_k)
        << "budget " << budget << " shrank (m,k)";
    last_m = c.m;
    last_k = c.k;
  }
  EXPECT_EQ(last_m, 4);  // final budget covers the whole tree
  EXPECT_EQ(last_k, 3);
}

}  // namespace
}  // namespace iamdb
