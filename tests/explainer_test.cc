// End-to-end tests on the Example 1 database: provenance, join-graph
// enumeration, APT materialization, and full explanation generation
// (recovering the paper's planted "star player" signal).

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/explainer.h"
#include "src/datasets/example_nba.h"
#include "src/datasets/mimic.h"
#include "src/provenance/provenance.h"
#include "src/sql/parser.h"

namespace cajade {
namespace {

constexpr const char* kQ1 =
    "SELECT winner AS team, season, count(*) AS win "
    "FROM game g WHERE winner = 'GSW' GROUP BY winner, season";

class ExplainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeExampleNbaDatabase().ValueOrDie();
    schema_graph_ = MakeExampleNbaSchemaGraph(db_).ValueOrDie();
  }

  UserQuestion Uq1() const {
    return UserQuestion::TwoPoint(Where({{"season", Value("2015-16")}}),
                                  Where({{"season", Value("2012-13")}}));
  }

  /// Omega_1 of the star-player explanation: PT - player_game_scoring on
  /// the game key (36 won games x 6 scorers = 216 APT rows for Uq1).
  JoinGraph StarPlayerGraph() const {
    JoinGraph g = JoinGraph::PtOnly();
    int scoring_edge = -1, cond = -1;
    for (size_t i = 0; i < schema_graph_.edges().size(); ++i) {
      const SchemaEdge& e = schema_graph_.edges()[i];
      if ((e.rel_a == "player_game_scoring" && e.rel_b == "game") ||
          (e.rel_a == "game" && e.rel_b == "player_game_scoring")) {
        scoring_edge = static_cast<int>(i);
        // The plain game-key condition has 4 pairs.
        for (size_t c = 0; c < e.conditions.size(); ++c) {
          if (e.conditions[c].pairs.size() == 4) cond = static_cast<int>(c);
        }
      }
    }
    EXPECT_GE(scoring_edge, 0);
    EXPECT_GE(cond, 0);
    if (scoring_edge < 0 || cond < 0) return g;
    int node = g.AddNode("player_game_scoring");
    JoinGraphEdge edge;
    edge.node_a = 0;
    edge.node_b = node;
    edge.schema_edge = scoring_edge;
    edge.condition = cond;
    // PT plays the "game" side of the condition.
    const SchemaEdge& se = schema_graph_.edges()[scoring_edge];
    edge.a_plays_left = se.rel_a == "game";
    edge.pt_relation = "game";
    g.AddEdge(edge);
    return g;
  }

  Database db_;
  SchemaGraph schema_graph_;
};

TEST_F(ExplainerTest, QueryResultMatchesPlantedWins) {
  Explainer explainer(&db_, &schema_graph_);
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  ASSERT_EQ(result.query_result.num_rows(), 2u);
  // Default options: 12 wins in 2012-13, 24 in 2015-16.
  int64_t total = result.query_result.GetValue(0, 2).AsInt() +
                  result.query_result.GetValue(1, 2).AsInt();
  EXPECT_EQ(total, 36);
}

TEST_F(ExplainerTest, ProvenancePartitionsMatchWinCounts) {
  auto query = ParseQuery(kQ1).ValueOrDie();
  auto pt = ComputeProvenance(db_, query).ValueOrDie();
  ASSERT_EQ(pt.output_to_pt_rows.size(), 2u);
  for (size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(static_cast<int64_t>(pt.output_to_pt_rows[g].size()),
              pt.result.GetValue(g, 2).AsInt());
  }
  // PT columns carry the prov_ naming convention.
  EXPECT_GE(pt.FindColumn("game", "season"), 0);
  EXPECT_EQ(pt.table.schema().column(pt.FindColumn("game", "season")).name,
            "prov_game_season");
  // Group-by attributes are marked for exclusion.
  EXPECT_EQ(pt.group_by_pt_cols.size(), 2u);
}

TEST_F(ExplainerTest, FindsRosterChurnExplanation) {
  // Mirrors the paper's Qnba4 finding: roster changes (Iguodala joining,
  // Jack leaving) produce near-perfect F-score explanations.
  Explainer explainer(&db_, &schema_graph_);
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  ASSERT_FALSE(result.explanations.empty());
  bool found = false;
  size_t limit = std::min<size_t>(result.explanations.size(), 15);
  for (size_t i = 0; i < limit; ++i) {
    const Explanation& e = result.explanations[i];
    if (e.pattern.find("A. Iguodala") != std::string::npos ||
        e.pattern.find("J. Jack") != std::string::npos) {
      found = true;
      EXPECT_GT(e.fscore, 0.9);
      break;
    }
  }
  EXPECT_TRUE(found) << "roster-churn explanation not in top " << limit;
}

TEST_F(ExplainerTest, FindsStarPlayerExplanation) {
  Explainer explainer(&db_, &schema_graph_);
  // Keep all attributes through relevance filtering (the example APTs are
  // only ~6 attributes wide; the default keep-fraction targets the paper's
  // 80+-column APTs) so the intro's Curry-with-points pattern can form.
  explainer.mutable_config()->sel_attr = 1.0;
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  ASSERT_FALSE(result.explanations.empty());

  // An explanation constraining S. Curry with a points threshold and t1
  // (2015-16) as primary must rank highly (the intro's Figure 2a).
  bool found = false;
  size_t limit = std::min<size_t>(result.explanations.size(), 100);
  for (size_t i = 0; i < limit; ++i) {
    const Explanation& e = result.explanations[i];
    if (e.pattern.find("S. Curry") != std::string::npos &&
        e.pattern.find("pts>=") != std::string::npos && e.primary == 0) {
      found = true;
      EXPECT_GT(e.fscore, 0.5);
      break;
    }
  }
  EXPECT_TRUE(found) << "star-player explanation not in top " << limit;
}

TEST_F(ExplainerTest, ExplanationsAreRankedByFscore) {
  Explainer explainer(&db_, &schema_graph_);
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  for (size_t i = 1; i < result.explanations.size(); ++i) {
    EXPECT_GE(result.explanations[i - 1].fscore, result.explanations[i].fscore);
  }
}

TEST_F(ExplainerTest, SupportsAreConsistent) {
  Explainer explainer(&db_, &schema_graph_);
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  for (const auto& e : result.explanations) {
    EXPECT_GE(e.support_primary, 0);
    EXPECT_LE(e.support_primary, e.total_primary);
    EXPECT_LE(e.support_other, e.total_other);
    // Two-point question on 24 vs 12 wins.
    EXPECT_EQ(e.total_primary + e.total_other, 36);
  }
}

TEST_F(ExplainerTest, SinglePointQuestionWorks) {
  Explainer explainer(&db_, &schema_graph_);
  auto question = UserQuestion::SinglePoint(Where({{"season", Value("2015-16")}}));
  auto result = explainer.Explain(kQ1, question).ValueOrDie();
  EXPECT_FALSE(result.explanations.empty());
  EXPECT_EQ(result.t2_description, "(all other output tuples)");
}

TEST_F(ExplainerTest, EnumerationStatsPopulated) {
  Explainer explainer(&db_, &schema_graph_);
  auto result = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  EXPECT_GT(result.enumeration.unique, 1);
  EXPECT_GT(result.enumeration.valid, 0);
  EXPECT_GT(result.apts_mined, 0u);
  EXPECT_GT(result.profile.Get("JG Enum."), 0.0);
  EXPECT_GT(result.profile.Get("Materialize APTs"), 0.0);
}

TEST_F(ExplainerTest, RefinementBudgetReportsTruncatedRankings) {
  Explainer explainer(&db_, &schema_graph_);
  auto complete = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  // Ten evaluations per APT cut nearly every graph's ranking short; each
  // truncated graph stopped at exactly the budget.
  explainer.mutable_config()->refinement_budget = 10;
  auto cut = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  EXPECT_GT(cut.apts_truncated, 0u);
  EXPECT_LE(cut.apts_truncated, cut.apts_mined);
  EXPECT_GE(cut.patterns_evaluated, 10 * cut.apts_truncated);
  EXPECT_LE(cut.patterns_evaluated, 10 * cut.apts_mined);
  EXPECT_LT(complete.apts_truncated, cut.apts_truncated);
}

TEST_F(ExplainerTest, QuestionSelectorErrors) {
  Explainer explainer(&db_, &schema_graph_);
  // Unknown season.
  auto bad = UserQuestion::TwoPoint(Where({{"season", Value("1999-00")}}),
                                    Where({{"season", Value("2012-13")}}));
  EXPECT_FALSE(explainer.Explain(kQ1, bad).ok());
  // Same tuple twice.
  auto same = UserQuestion::TwoPoint(Where({{"season", Value("2012-13")}}),
                                     Where({{"season", Value("2012-13")}}));
  EXPECT_FALSE(explainer.Explain(kQ1, same).ok());
  // Unknown column.
  auto badcol = UserQuestion::TwoPoint(Where({{"nope", Value("x")}}),
                                       Where({{"season", Value("2012-13")}}));
  EXPECT_FALSE(explainer.Explain(kQ1, badcol).ok());
}

TEST_F(ExplainerTest, BuildAptForStarPlayerGraph) {
  auto query = ParseQuery(kQ1).ValueOrDie();
  Explainer explainer(&db_, &schema_graph_);
  ShardedApt apt =
      explainer.BuildApt(query, Uq1(), StarPlayerGraph()).ValueOrDie();
  // 36 won games x 6 scorers.
  EXPECT_EQ(apt.num_rows(), 36u * 6);
  EXPECT_EQ(apt.pt_rows_used.size(), 36u);
  // Context columns carry the node label prefix.
  const Schema& schema = apt.schema_table().schema();
  EXPECT_GE(schema.FindColumn("player_game_scoring.player"), 0);
  EXPECT_GE(schema.FindColumn("player_game_scoring.pts"), 0);
  // Excluded from patterns: group-by columns (winner, season) plus the
  // date/key columns flagged mining_excluded (game year/month/day and the
  // scoring table's year/month/day/home).
  EXPECT_EQ(apt.pattern_cols.size(), schema.num_columns() - 2 - 7);
  for (int c : apt.pattern_cols) {
    EXPECT_FALSE(schema.column(c).mining_excluded);
  }

  // Both single-graph entry points honor the max_apt_rows cap, as Explain
  // does when it skips an oversized graph.
  CajadeConfig capped;
  capped.max_apt_rows = 100;
  Explainer capped_explainer(&db_, &schema_graph_, capped);
  EXPECT_EQ(capped_explainer.BuildApt(query, Uq1(), StarPlayerGraph())
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(capped_explainer.MineJoinGraph(query, Uq1(), StarPlayerGraph())
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(ExplainerTest, MalformedJoinGraphsAreInvalidArguments) {
  auto query = ParseQuery(kQ1).ValueOrDie();
  const JoinGraph valid = StarPlayerGraph();
  ASSERT_EQ(valid.num_edges(), 1u);
  std::vector<JoinGraph> malformed = {JoinGraph{}};
  auto with_edge = [&](const std::function<void(JoinGraphEdge&)>& edit) {
    JoinGraphEdge edge = valid.edges()[0];
    edit(edge);
    JoinGraph g = JoinGraph::PtOnly();
    g.AddNode("player_game_scoring");
    g.AddEdge(edge);
    malformed.push_back(g);
  };
  with_edge([](JoinGraphEdge& e) { e.node_b = 5; });
  with_edge([&](JoinGraphEdge& e) {
    e.schema_edge = static_cast<int>(schema_graph_.edges().size());
  });
  with_edge([](JoinGraphEdge& e) { e.condition = 99; });

  Explainer explainer(&db_, &schema_graph_);
  for (size_t i = 0; i < malformed.size(); ++i) {
    EXPECT_EQ(explainer.MineJoinGraph(query, Uq1(), malformed[i])
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "graph " << i;
    EXPECT_EQ(explainer.BuildApt(query, Uq1(), malformed[i]).status().code(),
              StatusCode::kInvalidArgument)
        << "graph " << i;
  }
}

TEST_F(ExplainerTest, DeduplicateKeepsBestPerPattern) {
  std::vector<Explanation> ranked(3);
  ranked[0].pattern = "a=1";
  ranked[0].primary = 0;
  ranked[0].fscore = 0.9;
  ranked[1].pattern = "a=1";
  ranked[1].primary = 0;
  ranked[1].fscore = 0.8;  // duplicate from another join graph
  ranked[2].pattern = "a=1";
  ranked[2].primary = 1;   // different primary: kept
  auto dedup = DeduplicateExplanations(ranked);
  ASSERT_EQ(dedup.size(), 2u);
  EXPECT_DOUBLE_EQ(dedup[0].fscore, 0.9);
}

/// Every explanation of `result` rendered with its scores, in rank order.
std::vector<std::string> Rendered(const ExplainResult& result) {
  std::vector<std::string> out;
  for (const Explanation& e : result.explanations) out.push_back(e.ToString());
  return out;
}

TEST_F(ExplainerTest, SecondExplainReusesTheIndexCache) {
  // The index cache lives as long as the Explainer, so a repeated call
  // finds every build-side index the first one built.
  Explainer explainer(&db_, &schema_graph_);
  const ExplainResult first = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  const AptIndexCache::Stats after_first = explainer.index_cache().stats();
  ASSERT_GT(after_first.misses, 0u);
  const ExplainResult second = explainer.Explain(kQ1, Uq1()).ValueOrDie();
  const AptIndexCache::Stats after_second = explainer.index_cache().stats();
  EXPECT_EQ(Rendered(second), Rendered(first));
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
}

TEST(SharedExplainerTest, ConcurrentExplainsMatchSerialRuns) {
  // Two MIMIC questions on one query, explained at once on one Explainer:
  // they share its executor, statistics catalog and prefix cache, and their
  // equal-length front halves line the two enumerations up. Under TSan this
  // is the shared-instance race check.
  MimicOptions opt;
  opt.scale_factor = 0.03;
  Database db = MakeMimicDatabase(opt).ValueOrDie();
  SchemaGraph sg = MakeMimicSchemaGraph(db).ValueOrDie();
  CajadeConfig config;
  config.max_join_graph_edges = 2;
  const std::string sql = MimicQuerySql(2);
  const UserQuestion questions[2] = {
      UserQuestion::TwoPoint(Where({{"insurance", Value("Medicare")}}),
                             Where({{"insurance", Value("Medicaid")}})),
      UserQuestion::TwoPoint(Where({{"insurance", Value("Medicare")}}),
                             Where({{"insurance", Value("Private")}}))};
  std::vector<std::string> serial[2];
  for (int q = 0; q < 2; ++q) {
    serial[q] = Rendered(
        Explainer(&db, &sg, config).Explain(sql, questions[q]).ValueOrDie());
    ASSERT_FALSE(serial[q].empty());
  }
  ASSERT_NE(serial[0], serial[1]);

  // A fresh Explainer per round, so every round's enumerations compute the
  // statistics they read.
  for (int round = 0; round < 3; ++round) {
    Explainer shared(&db, &sg, config);
    std::vector<std::string> got[2];
    std::atomic<int> ready{0};
    auto run = [&](int q) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      got[q] = Rendered(shared.Explain(sql, questions[q]).ValueOrDie());
    };
    std::thread t0(run, 0);
    std::thread t1(run, 1);
    t0.join();
    t1.join();
    EXPECT_EQ(got[0], serial[0]);
    EXPECT_EQ(got[1], serial[1]);
  }
}

}  // namespace
}  // namespace cajade
