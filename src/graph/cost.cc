#include "src/graph/cost.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace cajade {

double EstimateAptRows(const JoinGraph& g, const SchemaGraph& sg,
                       const Database& db, StatsCatalog* stats,
                       double pt_rows) {
  // Walks the materializer's own step order: tree steps fan the result out
  // by the new relation's rows per key, cycle-closing steps filter it.
  Result<AptPlan> plan = PlanAptSteps(g, sg);
  if (!plan.ok()) return std::numeric_limits<double>::infinity();
  double est = std::max(pt_rows, 1.0);
  for (const AptStep& step : plan->steps) {
    const JoinGraphEdge& e = g.edges()[step.edge];
    const JoinConditionDef& cond =
        sg.edges()[e.schema_edge].conditions[e.condition];
    // Cycle steps take node_b's side of the condition, tree steps the new
    // node's.
    const int node = step.cycle ? e.node_b : step.new_node;
    if (g.nodes()[node].is_pt) {
      est *= 0.5;  // conservative shrink for PT-side cycles
      continue;
    }
    auto table_r = db.GetTable(g.nodes()[node].relation);
    if (!table_r.ok()) continue;
    const Table& t = *table_r.ValueOrDie();
    const bool node_is_left = node == e.node_b ? !e.a_plays_left
                                               : e.a_plays_left;
    std::vector<std::string> attrs;
    for (const auto& p : cond.pairs) {
      attrs.push_back(node_is_left ? p.left : p.right);
    }
    const double ndv = static_cast<double>(stats->CombinedNdvByName(t, attrs));
    if (step.cycle) {
      est /= ndv;  // selectivity 1/ndv of the key combination
    } else {
      est *= std::max(1.0, static_cast<double>(t.num_rows()) / ndv);
    }
  }
  return est;
}

double EstimateAptCost(const JoinGraph& g, const SchemaGraph& sg,
                       const Database& db, StatsCatalog* stats, double pt_rows,
                       size_t pt_columns) {
  double rows = EstimateAptRows(g, sg, db, stats, pt_rows);
  size_t cols = pt_columns;
  for (const auto& n : g.nodes()) {
    if (n.is_pt) continue;
    auto t = db.GetTable(n.relation);
    if (t.ok()) cols += t.ValueOrDie()->num_columns();
  }
  return rows * static_cast<double>(std::max<size_t>(cols, 1));
}

}  // namespace cajade
