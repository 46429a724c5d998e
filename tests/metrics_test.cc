// Tests for src/metrics: NDCG, Kendall-tau discordant pairs, top-k match.

#include <gtest/gtest.h>

#include "src/metrics/ranking.h"

namespace cajade {
namespace {

TEST(NdcgTest, PerfectOrderIsOne) {
  EXPECT_DOUBLE_EQ(Ndcg({3.0, 2.0, 1.0}), 1.0);
}

TEST(NdcgTest, WorstOrderBelowOne) {
  double v = Ndcg({1.0, 2.0, 3.0});
  EXPECT_LT(v, 1.0);
  EXPECT_GT(v, 0.5);  // DCG discount keeps it bounded away from 0
}

TEST(NdcgTest, AllZeroGainsIsZero) {
  EXPECT_DOUBLE_EQ(Ndcg({0.0, 0.0}), 0.0);
}

TEST(KendallTauFromScoresTest, CountsDiscordantPairs) {
  // scores_a ranks 1>2>3; scores_b ranks 3>2>1: all 3 pairs discordant.
  EXPECT_DOUBLE_EQ(KendallTauFromScores({3, 2, 1}, {1, 2, 3}), 3.0);
  EXPECT_DOUBLE_EQ(KendallTauFromScores({3, 2, 1}, {9, 5, 2}), 0.0);
  // Ties skipped.
  EXPECT_DOUBLE_EQ(KendallTauFromScores({1, 1}, {2, 3}), 0.0);
}

TEST(TopKMatchTest, CountsIntersection) {
  EXPECT_EQ(TopKMatch({"a", "b", "c", "d"}, {"c", "a", "x"}, 3), 2u);
  EXPECT_EQ(TopKMatch({"a"}, {"a"}, 10), 1u);
  EXPECT_EQ(TopKMatch({}, {"a"}, 3), 0u);
}

}  // namespace
}  // namespace cajade
