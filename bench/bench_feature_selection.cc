// Reproduces Figure 7 (both tables): per-step runtime with feature
// selection at lambda_F1-samp in {0.1, 0.3, 0.5, 1.0} versus without
// feature selection, on NBA (Qnba4/GSW wins) and MIMIC (Qmimic4/insurance).
//
// Expected shape (paper): F-score Calc. grows steeply with the sample rate
// and explodes without feature selection; the other steps stay roughly flat.

#include "bench/bench_util.h"
#include "src/common/string_util.h"

using namespace cajade;
using namespace cajade::bench;

namespace {

void RunWorkload(const char* name, const Database& db, const SchemaGraph& sg,
                 const std::string& sql, const UserQuestion& question,
                 int max_edges) {
  std::printf("== Feature selection breakdown (%s, lambda_#edges=%d) ==\n", name,
              max_edges);
  std::vector<std::string> headers;
  std::vector<StepProfiler> profiles;
  std::vector<double> walls;
  std::vector<double> rates = FullRuns()
                                  ? std::vector<double>{0.1, 0.3, 0.5, 1.0}
                                  : std::vector<double>{0.1, 0.3, 1.0};
  for (double rate : rates) {
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->max_join_graph_edges = max_edges;
    explainer.mutable_config()->f1_sample_rate = rate;
    Timer timer;
    auto result = explainer.Explain(sql, question);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    walls.push_back(timer.ElapsedSeconds());
    headers.push_back(Format("fs %.1f", rate));
    profiles.push_back(result->profile);
  }
  {
    // "Naive": no feature selection (full F-score computation).
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->max_join_graph_edges = max_edges;
    explainer.mutable_config()->enable_feature_selection = false;
    explainer.mutable_config()->f1_sample_rate = 1.0;
    Timer timer;
    auto result = explainer.Explain(sql, question);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    walls.push_back(timer.ElapsedSeconds());
    headers.push_back("naive");
    profiles.push_back(result->profile);
  }
  PrintBreakdownMatrix(headers, profiles, walls);
  std::printf("\n");
}

}  // namespace

int main() {
  int max_edges = EnvEdges(2);
  {
    NbaOptions opt;
    opt.scale_factor = EnvScale(0.05);
    Database db = MakeNbaDatabase(opt).ValueOrDie();
    SchemaGraph sg = MakeNbaSchemaGraph(db).ValueOrDie();
    RunWorkload("NBA Qnba4, GSW wins 2012-13 vs 2016-17", db, sg,
                NbaQuerySql(4), NbaQuestion(4), max_edges);
  }
  {
    MimicOptions opt;
    opt.scale_factor = EnvScale(0.1);
    Database db = MakeMimicDatabase(opt).ValueOrDie();
    SchemaGraph sg = MakeMimicSchemaGraph(db).ValueOrDie();
    RunWorkload("MIMIC Qmimic4", db, sg, MimicQuerySql(4), MimicQuestion(4),
                max_edges);
  }
  return 0;
}
