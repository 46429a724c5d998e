// Metamorphic relations of the end product: pairs of related inputs whose
// answers the paper's definitions force to agree, checked against each
// other instead of against an oracle.
//
// Mirror (Definitions 6-7): swapping a two-point question's t1 and t2 only
// swaps which tuple is primary. An explanation's relative supports are
// stated for its primary tuple and the other one, and precision, recall and
// F-score are functions of those supports, so the swapped question must
// yield the same multiset of (join graph, conditions, pattern, primary
// tuple, exact scores, supports), each with the primary flipped.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/explainer.h"
#include "src/datasets/example_nba.h"

namespace cajade {
namespace {

constexpr const char* kQ1 =
    "SELECT winner AS team, season, count(*) AS win "
    "FROM game g WHERE winner = 'GSW' GROUP BY winner, season";

/// An explanation as the mirror relation sees it: everything but the
/// sampled F-score, with `primary` as reported.
using ExplanationKey =
    std::tuple<std::string, std::string, std::string, std::string, int, double,
               double, double, int64_t, int64_t, int64_t, int64_t>;

std::multiset<ExplanationKey> Keys(const std::vector<Explanation>& explanations,
                                   bool flip_primary) {
  std::multiset<ExplanationKey> keys;
  for (const Explanation& e : explanations) {
    keys.emplace(e.join_graph, e.join_conditions, e.pattern, e.primary_tuple,
                 flip_primary ? 1 - e.primary : e.primary, e.precision,
                 e.recall, e.fscore, e.support_primary, e.total_primary,
                 e.support_other, e.total_other);
  }
  return keys;
}

class MirrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeExampleNbaDatabase().ValueOrDie();
    schema_graph_ = MakeExampleNbaSchemaGraph(db_).ValueOrDie();
  }

  /// Explains kQ1 for Uq1 (2015-16 against 2012-13) and for Uq1 with t1
  /// and t2 swapped, requires the answers to be mirror images, and returns
  /// how many explanations each has.
  size_t ExpectMirror(const CajadeConfig& config) {
    const TupleSelector t1 = Where({{"season", Value("2015-16")}});
    const TupleSelector t2 = Where({{"season", Value("2012-13")}});
    Explainer explainer(&db_, &schema_graph_, config);
    const ExplainResult forward =
        explainer.Explain(kQ1, UserQuestion::TwoPoint(t1, t2)).ValueOrDie();
    const ExplainResult swapped =
        explainer.Explain(kQ1, UserQuestion::TwoPoint(t2, t1)).ValueOrDie();
    EXPECT_FALSE(forward.explanations.empty());
    EXPECT_EQ(Keys(forward.explanations, /*flip_primary=*/false),
              Keys(swapped.explanations, /*flip_primary=*/true));
    return forward.explanations.size();
  }

  Database db_;
  SchemaGraph schema_graph_;
};

TEST_F(MirrorTest, OneEdgeGraphsAtTheDefaultConfig) {
  CajadeConfig config;
  config.max_join_graph_edges = 1;
  EXPECT_EQ(ExpectMirror(config), 40u);
}

TEST_F(MirrorTest, TwoEdgeGraphsAtTheDefaultConfig) {
  CajadeConfig config;
  config.max_join_graph_edges = 2;
  EXPECT_EQ(ExpectMirror(config), 170u);
}

// At three edges the relation is asserted with F-score sampling and feature
// selection off. With feature selection on, 6 explanations per side differ,
// all on PT - player_game_scoring - game, which re-joins the PT's own game
// row: where one side's pattern names game.home_pts, the other names the
// equal-valued prov_game_home_pts. Feature selection keeps one of two
// equal-valued columns, and which one changes when the class labels flip.
// With sampling on and feature selection off, 3 differ: the same patterns
// reported under the other primary, with different sampled scores. Both
// are open asymmetries in the two classes' treatment, not asserted here.
TEST_F(MirrorTest, ThreeEdgeGraphsWithoutSamplingOrFeatureSelection) {
  CajadeConfig config;
  config.max_join_graph_edges = 3;
  config.f1_sample_rate = 1.0;
  config.enable_feature_selection = false;
  EXPECT_EQ(ExpectMirror(config), 780u);
}

}  // namespace
}  // namespace cajade
