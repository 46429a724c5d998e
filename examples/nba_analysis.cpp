// Domain example: the paper's NBA workload end-to-end on the full Figure 5
// schema. Runs Qnba4 (GSW wins per season) with the Table 4 user question
// (2012-13 vs 2016-17) and prints the top explanations — expect roster
// moves (Iguodala) and team-stat patterns, mirroring the paper's findings.

#include <cstdio>

#include "src/core/explainer.h"
#include "src/datasets/nba.h"

using namespace cajade;

int main(int argc, char** argv) {
  NbaOptions options;
  options.scale_factor = argc > 1 ? atof(argv[1]) : 0.1;
  std::printf("Generating synthetic NBA database (scale %.2f)...\n",
              options.scale_factor);
  Database db = MakeNbaDatabase(options).ValueOrDie();
  for (const auto& name : db.table_names()) {
    std::printf("  %-22s %8zu rows\n", name.c_str(),
                db.GetTable(name).ValueOrDie()->num_rows());
  }
  SchemaGraph schema_graph = MakeNbaSchemaGraph(db).ValueOrDie();
  std::printf("Schema graph: %zu edges, %zu join conditions\n\n",
              schema_graph.edges().size(), schema_graph.TotalConditions());

  Explainer explainer(&db, &schema_graph);
  explainer.mutable_config()->max_join_graph_edges = 2;

  UserQuestion question =
      UserQuestion::TwoPoint(Where({{"season_name", Value("2012-13")}}),
                             Where({{"season_name", Value("2016-17")}}));
  std::printf("Qnba4: %s\n", NbaQuerySql(4).c_str());
  ExplainResult result = explainer.Explain(NbaQuerySql(4), question).ValueOrDie();

  std::printf("\n%s\n", result.query_result.ToString(12).c_str());
  std::printf("Question: why %s vs %s?\n", result.t1_description.c_str(),
              result.t2_description.c_str());
  std::printf("Join graphs: %d unique / %d mined (pk-pruned %d, cost-pruned "
              "%d, oversize-skipped %zu, budget-truncated %zu)\n\n",
              result.enumeration.unique, result.enumeration.valid,
              result.enumeration.pruned_pk, result.enumeration.pruned_cost,
              result.apts_skipped_oversize, result.apts_truncated);

  auto top = DeduplicateExplanations(result.explanations);
  for (size_t i = 0; i < top.size() && i < 8; ++i) {
    std::printf("%2zu. %s\n", i + 1, top[i].ToString().c_str());
  }
  return 0;
}
