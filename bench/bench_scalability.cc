// Reproduces Figure 9: runtime against database scale factor for several
// F-score sample rates, with a linear-scaling reference, plus the per-step
// breakdown at the largest sample rate (Figures 9c/9d) for NBA and MIMIC.
//
// Expected shape: sublinear growth in the scale factor; sampling's benefit
// widens as the database grows; F-score calculation dominates at scale.

#include "bench/bench_util.h"
#include "src/common/string_util.h"

using namespace cajade;
using namespace cajade::bench;

namespace {

template <typename MakeDb, typename MakeSg>
void RunWorkload(const char* name, MakeDb make_db, MakeSg make_sg,
                 const std::string& sql, const UserQuestion& question) {
  std::vector<double> scales = FullRuns()
                                   ? std::vector<double>{0.05, 0.1, 0.2, 0.4, 0.8}
                                   : std::vector<double>{0.05, 0.1, 0.2};
  std::vector<double> rates = FullRuns() ? std::vector<double>{0.1, 0.3, 0.7}
                                         : std::vector<double>{0.1, 0.7};
  int max_edges = EnvEdges(2);

  std::printf("== Scalability in database size (%s, lambda_#edges=%d) ==\n",
              name, max_edges);
  std::printf("%-8s %12s", "scale", "rows");
  for (double r : rates) std::printf("   fs=%-6.1f", r);
  std::printf("   %s\n", "linear-ref(fs=min)");

  double first_runtime = -1;
  double first_scale = scales.front();
  std::vector<StepProfiler> breakdowns;
  std::vector<double> walls;
  std::vector<std::string> headers;
  for (double scale : scales) {
    Database db = make_db(scale);
    SchemaGraph sg = make_sg(db);
    std::printf("%-8.2f %12zu", scale, db.TotalRows());
    for (double rate : rates) {
      Explainer explainer(&db, &sg);
      explainer.mutable_config()->max_join_graph_edges = max_edges;
      explainer.mutable_config()->f1_sample_rate = rate;
      Timer timer;
      auto result = explainer.Explain(sql, question);
      if (!result.ok()) {
        std::printf("\nerror: %s\n", result.status().ToString().c_str());
        return;
      }
      double runtime = timer.ElapsedSeconds();
      std::printf("   %8.2fs", runtime);
      if (rate == rates.front() && first_runtime < 0) first_runtime = runtime;
      if (rate == rates.back()) {
        headers.push_back(Format("sf %.2f", scale));
        breakdowns.push_back(result->profile);
        walls.push_back(runtime);
      }
    }
    std::printf("   %8.2fs\n", first_runtime * scale / first_scale);
  }
  std::printf("\nPer-step breakdown at fs=%.1f (Figure 9c/9d analogue):\n",
              rates.back());
  PrintBreakdownMatrix(headers, breakdowns, walls);
  std::printf("\n");
}

}  // namespace

int main() {
  RunWorkload(
      "NBA Qnba4, GSW wins 2012-13 vs 2016-17",
      [](double sf) {
        NbaOptions opt;
        opt.scale_factor = sf;
        return MakeNbaDatabase(opt).ValueOrDie();
      },
      [](const Database& db) { return MakeNbaSchemaGraph(db).ValueOrDie(); },
      NbaQuerySql(4), NbaQuestion(4));
  RunWorkload(
      "MIMIC Qmimic4",
      [](double sf) {
        MimicOptions opt;
        opt.scale_factor = sf;
        return MakeMimicDatabase(opt).ValueOrDie();
      },
      [](const Database& db) { return MakeMimicSchemaGraph(db).ValueOrDie(); },
      MimicQuerySql(4), MimicQuestion(4));
  return 0;
}
