// Ablation study for the design choices docs/DESIGN.md calls out (not a
// paper figure; complements Section 5's optimization analysis): recall-
// monotonicity pruning (Prop. 3.1), diversity re-ranking, join-graph cost
// pruning, PK-coverage pruning, and feature selection, each toggled off
// against the default.
//
// Expected shape: disabling recall pruning or cost pruning inflates runtime
// with little quality gain; disabling diversity collapses the top-k to
// near-duplicate patterns.

#include <set>

#include "bench/bench_util.h"

using namespace cajade;
using namespace cajade::bench;

namespace {

struct Variant {
  const char* name;
  void (*configure)(CajadeConfig*);
};

}  // namespace

int main() {
  NbaOptions opt;
  opt.scale_factor = EnvScale(0.05);
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  SchemaGraph sg = MakeNbaSchemaGraph(db).ValueOrDie();
  std::string sql = NbaQuerySql(4);
  UserQuestion question = NbaQuestion(4);

  const Variant variants[] = {
      {"default", [](CajadeConfig*) {}},
      {"no-recall-pruning",
       [](CajadeConfig* c) { c->enable_recall_pruning = false; }},
      {"no-diversity", [](CajadeConfig* c) { c->enable_diversity = false; }},
      {"no-cost-pruning",
       [](CajadeConfig* c) { c->enable_cost_pruning = false; }},
      {"no-pk-pruning", [](CajadeConfig* c) { c->enable_pk_pruning = false; }},
      {"strict-pk", [](CajadeConfig* c) { c->pk_check_strict = true; }},
      {"no-feature-sel",
       [](CajadeConfig* c) { c->enable_feature_selection = false; }},
  };

  std::printf("== Ablations (NBA Qnba4, lambda_#edges=%d) ==\n", EnvEdges(2));
  std::printf("%-20s %10s %8s %8s %10s %14s\n", "variant", "runtime", "mined",
              "top1-F", "#expl", "distinct-attrs");
  for (const auto& v : variants) {
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->max_join_graph_edges = EnvEdges(2);
    v.configure(explainer.mutable_config());
    Timer timer;
    auto result = explainer.Explain(sql, question);
    if (!result.ok()) {
      std::printf("%-20s error: %s\n", v.name,
                  result.status().ToString().c_str());
      continue;
    }
    double runtime = timer.ElapsedSeconds();
    auto top = DeduplicateExplanations(result->explanations);
    // Diversity proxy: distinct attribute sets among the top 10.
    std::set<std::string> attr_sets;
    for (size_t i = 0; i < top.size() && i < 10; ++i) {
      attr_sets.insert(top[i].join_graph + "|" +
                       std::to_string(top[i].pattern_size));
    }
    std::printf("%-20s %9.2fs %8zu %8.2f %10zu %14zu\n", v.name, runtime,
                result->apts_mined, top.empty() ? 0.0 : top[0].fscore,
                result->explanations.size(), attr_sets.size());
  }
  return 0;
}
