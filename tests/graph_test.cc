// Tests for src/graph: schema graphs, join graphs (canonical keys), the
// enumerator (Algorithm 2) and its isValid pruning, and cost estimation.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <string>

#include "src/datasets/example_nba.h"
#include "src/graph/cost.h"
#include "src/graph/enumerator.h"

namespace cajade {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeExampleNbaDatabase().ValueOrDie();
    graph_ = MakeExampleNbaSchemaGraph(db_).ValueOrDie();
  }
  Database db_;
  SchemaGraph graph_;
};

TEST_F(GraphTest, FkDerivedEdgesPresent) {
  // player_game_scoring-game and lineup_per_game_stats-game from FKs, plus
  // the three user conditions.
  EXPECT_GE(graph_.edges().size(), 4u);
  bool found_pgs_game = false;
  for (const auto& e : graph_.edges()) {
    if ((e.rel_a == "player_game_scoring" && e.rel_b == "game") ||
        (e.rel_b == "player_game_scoring" && e.rel_a == "game")) {
      found_pgs_game = true;
      // FK condition + the home=winner variant.
      EXPECT_EQ(e.conditions.size(), 2u);
    }
  }
  EXPECT_TRUE(found_pgs_game);
}

TEST_F(GraphTest, AddConditionMergesAndFlipsOrientation) {
  SchemaGraph g;
  ASSERT_TRUE(g.AddCondition("a", "b", {{{"x", "y"}}}).ok());
  // Same edge added from the other side: pairs must flip into a's frame.
  ASSERT_TRUE(g.AddCondition("b", "a", {{{"y", "x"}}}).ok());
  ASSERT_EQ(g.edges().size(), 1u);
  ASSERT_EQ(g.edges()[0].conditions.size(), 2u);
  EXPECT_EQ(g.edges()[0].conditions[1].pairs[0].left, "x");
  EXPECT_EQ(g.edges()[0].conditions[1].pairs[0].right, "y");
}

TEST_F(GraphTest, EmptyConditionRejected) {
  SchemaGraph g;
  EXPECT_FALSE(g.AddCondition("a", "b", {}).ok());
}

TEST_F(GraphTest, EdgesOfRelationAndSelfJoin) {
  auto edges = graph_.EdgesOfRelation("lineup_player");
  // lineup stats edge + self-join edge.
  EXPECT_GE(edges.size(), 2u);
  bool has_self = false;
  for (int e : edges) {
    if (graph_.edges()[e].rel_a == graph_.edges()[e].rel_b) has_self = true;
  }
  EXPECT_TRUE(has_self);
}

TEST_F(GraphTest, JoinConditionToString) {
  JoinConditionDef cond{{{"x", "y"}, {"u", "v"}}};
  EXPECT_EQ(cond.ToString("A", "B"), "(A.x=B.y AND A.u=B.v)");
}

TEST(JoinGraphTest, PtOnlyShape) {
  JoinGraph g = JoinGraph::PtOnly();
  ASSERT_EQ(g.nodes().size(), 1u);
  EXPECT_TRUE(g.nodes()[0].is_pt);
  EXPECT_EQ(g.Describe(), "PT");
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(JoinGraphTest, RepeatedRelationGetsFreshLabel) {
  JoinGraph g = JoinGraph::PtOnly();
  int a = g.AddNode("lineup_player");
  int b = g.AddNode("lineup_player");
  EXPECT_EQ(g.nodes()[a].label, "lineup_player");
  EXPECT_EQ(g.nodes()[b].label, "lineup_player#2");
}

TEST(JoinGraphTest, HasEdgeDetectsParallelDuplicates) {
  JoinGraph g = JoinGraph::PtOnly();
  int a = g.AddNode("r");
  JoinGraphEdge e{0, a, 3, 0, true, "q"};
  g.AddEdge(e);
  EXPECT_TRUE(g.HasEdge(0, a, 3, 0));
  EXPECT_TRUE(g.HasEdge(a, 0, 3, 0));  // orientation-insensitive
  EXPECT_FALSE(g.HasEdge(0, a, 3, 1)); // different condition is a new edge
}

TEST(JoinGraphTest, CanonicalKeyInvariantToInsertionOrder) {
  // PT with two children added in different orders must collide.
  auto build = [](bool swap) {
    JoinGraph g = JoinGraph::PtOnly();
    int x = g.AddNode(swap ? "s" : "r");
    int y = g.AddNode(swap ? "r" : "s");
    JoinGraphEdge e1{0, x, 1, 0, true, "q"};
    JoinGraphEdge e2{0, y, 2, 0, true, "q"};
    if (swap) std::swap(e1.schema_edge, e2.schema_edge);
    g.AddEdge(e1);
    g.AddEdge(e2);
    return g.CanonicalKey();
  };
  EXPECT_EQ(build(false), build(true));
}

TEST(JoinGraphTest, CanonicalKeyDistinguishesPathFromParallel) {
  // PT -e1- r -e2- s   vs   PT -e1- r, PT -e2- s.
  JoinGraph path = JoinGraph::PtOnly();
  {
    int r = path.AddNode("r");
    int s = path.AddNode("s");
    path.AddEdge({0, r, 1, 0, true, "q"});
    path.AddEdge({r, s, 2, 0, true, ""});
  }
  JoinGraph star = JoinGraph::PtOnly();
  {
    int r = star.AddNode("r");
    int s = star.AddNode("s");
    star.AddEdge({0, r, 1, 0, true, "q"});
    star.AddEdge({0, s, 2, 0, true, "q"});
  }
  EXPECT_NE(path.CanonicalKey(), star.CanonicalKey());
}

TEST_F(GraphTest, EnumeratorGrowsByIteration) {
  JoinGraphEnumerator::Options o;
  o.check_cost = false;
  o.pk_check = PkCheckMode::kOff;
  std::vector<int> uniques;
  for (int me = 1; me <= 3; ++me) {
    o.max_edges = me;
    JoinGraphEnumerator e(&graph_, &db_, {"game"}, o);
    auto all = e.EnumerateAll(10, 9).ValueOrDie();
    uniques.push_back(static_cast<int>(all.size()));
  }
  EXPECT_LT(uniques[0], uniques[1]);
  EXPECT_LT(uniques[1], uniques[2]);
}

TEST_F(GraphTest, EnumeratorDeduplicatesCanonically) {
  JoinGraphEnumerator::Options o;
  o.max_edges = 2;
  o.check_cost = false;
  o.pk_check = PkCheckMode::kOff;
  JoinGraphEnumerator e(&graph_, &db_, {"game"}, o);
  auto all = e.EnumerateAll(10, 9).ValueOrDie();
  std::set<std::string> keys;
  for (const auto& g : all) keys.insert(g.CanonicalKey());
  EXPECT_EQ(keys.size(), all.size());
  EXPECT_GT(e.stats().generated, e.stats().unique);
}

TEST_F(GraphTest, PkCheckModesOrderedByStrictness) {
  auto count_valid = [&](PkCheckMode mode) {
    JoinGraphEnumerator::Options o;
    o.max_edges = 2;
    o.check_cost = false;
    o.pk_check = mode;
    JoinGraphEnumerator e(&graph_, &db_, {"game"}, o);
    return e.EnumerateAll(10, 9).ValueOrDie().size();
  };
  size_t off = count_valid(PkCheckMode::kOff);
  size_t any = count_valid(PkCheckMode::kAnyAttr);
  size_t all = count_valid(PkCheckMode::kAllAttrs);
  EXPECT_GE(off, any);
  EXPECT_GE(any, all);
  EXPECT_GT(all, 0u);
}

TEST_F(GraphTest, CostPruningRemovesGraphs) {
  JoinGraphEnumerator::Options strict;
  strict.max_edges = 2;
  strict.pk_check = PkCheckMode::kOff;
  strict.cost_threshold = 1.0;  // prune everything with a join
  JoinGraphEnumerator e(&graph_, &db_, {"game"}, strict);
  auto all = e.EnumerateAll(1000, 9).ValueOrDie();
  // Only the PT-only graph remains.
  EXPECT_EQ(all.size(), 1u);
  EXPECT_GT(e.stats().pruned_cost, 0);
}

TEST_F(GraphTest, CostEstimateGrowsWithFanout) {
  StatsCatalog stats;
  // PT-player_game_scoring via the game key: ~5-6 scoring rows per game.
  JoinGraph g = JoinGraph::PtOnly();
  int scoring_edge = -1;
  int cond = -1;
  for (size_t i = 0; i < graph_.edges().size(); ++i) {
    const auto& e = graph_.edges()[i];
    if (e.rel_a == "player_game_scoring" && e.rel_b == "game") {
      scoring_edge = static_cast<int>(i);
      for (size_t c = 0; c < e.conditions.size(); ++c) {
        if (e.conditions[c].pairs.size() == 4) cond = static_cast<int>(c);
      }
    }
  }
  ASSERT_GE(scoring_edge, 0);
  int node = g.AddNode("player_game_scoring");
  g.AddEdge({0, node, scoring_edge, cond, false, "game"});
  double base = EstimateAptRows(JoinGraph::PtOnly(), graph_, db_, &stats, 36);
  double grown = EstimateAptRows(g, graph_, db_, &stats, 36);
  EXPECT_DOUBLE_EQ(base, 36.0);
  EXPECT_GT(grown, base);
  // Cost also accounts for width.
  EXPECT_GT(EstimateAptCost(g, graph_, db_, &stats, 36, 9),
            EstimateAptRows(g, graph_, db_, &stats, 36));
}

/// Connects nodes `a` (relation `rel_a`) and `b` (relation `rel_b`) through
/// the condition with `pairs` attribute pairs on the schema edge joining
/// the two relations.
void Connect(const SchemaGraph& sg, JoinGraph* g, int a,
             const std::string& rel_a, int b, const std::string& rel_b,
             size_t pairs, const std::string& pt_relation) {
  for (size_t i = 0; i < sg.edges().size(); ++i) {
    const SchemaEdge& se = sg.edges()[i];
    const bool forward = se.rel_a == rel_a && se.rel_b == rel_b;
    if (!forward && !(se.rel_a == rel_b && se.rel_b == rel_a)) continue;
    for (size_t c = 0; c < se.conditions.size(); ++c) {
      if (se.conditions[c].pairs.size() != pairs) continue;
      g->AddEdge({a, b, static_cast<int>(i), static_cast<int>(c), forward,
                  pt_relation});
      return;
    }
  }
  FAIL() << "no " << rel_a << " - " << rel_b << " condition with " << pairs
         << " pairs";
}

TEST_F(GraphTest, CostEstimateMultipliesTheSecondHop) {
  StatsCatalog stats;
  // PT - lineup_per_game_stats (three lineups per game) - lineup_player
  // (five players per lineup).
  JoinGraph one_hop = JoinGraph::PtOnly();
  int lineup_stats = one_hop.AddNode("lineup_per_game_stats");
  Connect(graph_, &one_hop, 0, "game", lineup_stats, "lineup_per_game_stats",
          4, "game");
  JoinGraph two_hops = one_hop;
  int lineup_player = two_hops.AddNode("lineup_player");
  Connect(graph_, &two_hops, lineup_stats, "lineup_per_game_stats",
          lineup_player, "lineup_player", 1, "");

  const Table& players = *db_.GetTable("lineup_player").ValueOrDie();
  const double fanout =
      static_cast<double>(players.num_rows()) /
      static_cast<double>(stats.CombinedNdvByName(players, {"lineupid"}));
  ASSERT_GT(fanout, 1.0);
  const double rows = EstimateAptRows(one_hop, graph_, db_, &stats, 36);
  EXPECT_GT(rows, 36.0);
  EXPECT_DOUBLE_EQ(EstimateAptRows(two_hops, graph_, db_, &stats, 36),
                   rows * fanout);
  EXPECT_GT(EstimateAptCost(two_hops, graph_, db_, &stats, 36, 9),
            EstimateAptCost(one_hop, graph_, db_, &stats, 36, 9));
}

TEST_F(GraphTest, CostEstimateFiltersOnAParallelPtEdge) {
  StatsCatalog stats;
  // PT - player_game_scoring on the game key, then a second PT edge to the
  // same node (the home = winner condition): it closes a cycle and filters
  // instead of fanning out again.
  JoinGraph single = JoinGraph::PtOnly();
  int scoring = single.AddNode("player_game_scoring");
  Connect(graph_, &single, 0, "game", scoring, "player_game_scoring", 4,
          "game");
  JoinGraph parallel = single;
  Connect(graph_, &parallel, 0, "game", scoring, "player_game_scoring", 5,
          "game");

  const Table& table = *db_.GetTable("player_game_scoring").ValueOrDie();
  const double key_ndv = static_cast<double>(
      stats.CombinedNdvByName(table, {"year", "month", "day", "home"}));
  ASSERT_GT(key_ndv, 1.0);
  const double rows = EstimateAptRows(single, graph_, db_, &stats, 36);
  EXPECT_DOUBLE_EQ(EstimateAptRows(parallel, graph_, db_, &stats, 36),
                   rows / key_ndv);
}

/// PT - player_game_scoring on the game key, with its one edge passed
/// through `edit` first.
JoinGraph ScoringGraph(const SchemaGraph& sg,
                       const std::function<void(JoinGraphEdge&)>& edit) {
  JoinGraph valid = JoinGraph::PtOnly();
  const int scoring = valid.AddNode("player_game_scoring");
  Connect(sg, &valid, 0, "game", scoring, "player_game_scoring", 4, "game");
  JoinGraphEdge edge = valid.edges().at(0);
  edit(edge);
  JoinGraph g = JoinGraph::PtOnly();
  g.AddNode("player_game_scoring");
  g.AddEdge(edge);
  return g;
}

// PlanAptSteps validates a caller-built graph before indexing into it or
// into the schema graph; the materializer and the cost estimate both plan
// first. Each malformed shape below used to crash or be planned as valid.
TEST_F(GraphTest, PlanRejectsAGraphWithoutNodes) {
  EXPECT_EQ(PlanAptSteps(JoinGraph{}, graph_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, PlanRejectsAGraphWhoseFirstNodeIsNotPt) {
  JoinGraph g;
  g.AddNode("game");
  EXPECT_EQ(PlanAptSteps(g, graph_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, PlanRejectsAnEdgeToAMissingNode) {
  for (int node : {-1, 2}) {
    JoinGraph g =
        ScoringGraph(graph_, [&](JoinGraphEdge& e) { e.node_b = node; });
    EXPECT_EQ(PlanAptSteps(g, graph_).status().code(),
              StatusCode::kInvalidArgument)
        << "node " << node;
  }
}

TEST_F(GraphTest, PlanRejectsAMissingSchemaEdge) {
  StatsCatalog stats;
  for (int edge : {-1, static_cast<int>(graph_.edges().size())}) {
    JoinGraph g =
        ScoringGraph(graph_, [&](JoinGraphEdge& e) { e.schema_edge = edge; });
    EXPECT_EQ(PlanAptSteps(g, graph_).status().code(),
              StatusCode::kInvalidArgument)
        << "schema edge " << edge;
    // The cost estimate plans first, so the graph prices as unbuildable.
    EXPECT_EQ(EstimateAptRows(g, graph_, db_, &stats, 36),
              std::numeric_limits<double>::infinity());
  }
}

TEST_F(GraphTest, PlanRejectsAMissingCondition) {
  JoinGraph valid = ScoringGraph(graph_, [](JoinGraphEdge&) {});
  ASSERT_TRUE(PlanAptSteps(valid, graph_).ok());
  const int num_conditions = static_cast<int>(
      graph_.edges()[valid.edges()[0].schema_edge].conditions.size());
  for (int cond : {-1, num_conditions}) {
    JoinGraph g =
        ScoringGraph(graph_, [&](JoinGraphEdge& e) { e.condition = cond; });
    EXPECT_EQ(PlanAptSteps(g, graph_).status().code(),
              StatusCode::kInvalidArgument)
        << "condition " << cond;
  }
}

}  // namespace
}  // namespace cajade
