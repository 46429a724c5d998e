// Reproduces Figure 10: the effect of sampling on runtime and pattern
// quality.
//  (a) APT sizes for the four fixed join graphs Omega_1..Omega_4,
//  (b-e) LCA sample size vs. candidate-generation runtime (the miner's
//        "Gen. Pat. Cand." step) and top-10 match against the ground truth
//        whose LCA sample covers the whole APT; F-scores are exact on both
//        sides, so only the LCA sample differs,
//  (f)   NDCG of the sampled explanation ranking vs. lambda_F1-samp,
//  (g)   top-k recall of the sampled ranking vs. lambda_F1-samp.
//
// Expected shape: LCA runtime grows quadratically in the sample size; NDCG
// and recall rise with the sample rate, already high at moderate rates.

#include <set>

#include <algorithm>

#include "bench/bench_util.h"
#include "src/metrics/ranking.h"
#include "src/sql/parser.h"

using namespace cajade;
using namespace cajade::bench;

namespace {

struct FixedGraph {
  const char* name;
  const Database* db;
  const SchemaGraph* sg;
  std::string sql;
  UserQuestion question;
  JoinGraph graph;
};

void LcaSamplingSweep(const FixedGraph& fg) {
  Explainer explainer(fg.db, fg.sg);
  auto query = ParseQuery(fg.sql).ValueOrDie();
  auto apt_r = explainer.BuildApt(query, fg.question, fg.graph);
  if (!apt_r.ok()) {
    std::printf("  error: %s\n", apt_r.status().ToString().c_str());
    return;
  }
  // Mines with an LCA sample of at most `cap` rows and exact F-scores;
  // `gen_ms` receives the candidate-generation step's time and
  // `candidates` the number of LCA candidates.
  auto mine_with = [&](size_t cap, double* gen_ms, size_t* candidates) {
    Explainer ex(fg.db, fg.sg);
    ex.mutable_config()->pat_sample_cap = cap;
    ex.mutable_config()->pat_sample_rate = 1.0;
    ex.mutable_config()->f1_sample_rate = 1.0;
    StepProfiler profiler;
    auto mined = ex.MineJoinGraph(query, fg.question, fg.graph, &profiler);
    if (gen_ms != nullptr) *gen_ms = 1e3 * profiler.Get("Gen. Pat. Cand.");
    std::vector<std::string> keys;
    if (mined.ok()) {
      if (candidates != nullptr) *candidates = mined->lca_candidates;
      for (const auto& mp : mined->top_k) {
        keys.push_back(mp.pattern.Key() + "#" + std::to_string(mp.primary));
      }
    }
    return keys;
  };
  // Ground truth: the LCA sample covers the whole APT.
  size_t truth_candidates = 0;
  auto truth = mine_with(100000, nullptr, &truth_candidates);
  std::printf("  %-34s APT rows=%zu attrs=%zu LCA candidates=%zu\n",
              fg.graph.Describe().c_str(), apt_r->num_rows(),
              apt_r->pattern_cols.size(), truth_candidates);

  std::printf("    %-12s %14s %12s\n", "sample", "gen. cand. ms",
              "top-10 match");
  for (double rate : {0.01, 0.03, 0.05, 0.1, 0.2}) {
    size_t sample = std::max<size_t>(
        16, static_cast<size_t>(rate * static_cast<double>(apt_r->num_rows())));
    double gen_ms = 0;
    auto sampled = mine_with(sample, &gen_ms, nullptr);
    std::printf("    %-12zu %14.3f %12zu\n", sample, gen_ms,
                TopKMatch(truth, sampled, 10));
  }
}

void F1SamplingQuality(const char* name, const Database& db,
                       const SchemaGraph& sg, const std::string& sql,
                       const UserQuestion& question) {
  std::printf("\n== NDCG / recall vs lambda_F1-samp (%s) ==\n", name);
  int max_edges = EnvEdges(2);
  // Ground truth ranking: no sampling; relevance = exact F-score.
  auto run = [&](double rate) {
    Explainer ex(&db, &sg);
    ex.mutable_config()->max_join_graph_edges = max_edges;
    ex.mutable_config()->f1_sample_rate = rate;
    auto r = ex.Explain(sql, question).ValueOrDie();
    return DeduplicateExplanations(r.explanations);
  };
  auto truth = run(1.0);
  const size_t k = 20;
  (void)truth;
  std::vector<std::string> truth_keys;
  for (size_t i = 0; i < truth.size() && i < k; ++i) {
    truth_keys.push_back(truth[i].pattern + "#" + std::to_string(truth[i].primary));
  }
  std::printf("%-10s %8s %8s\n", "F1-samp", "NDCG", "recall");
  for (double rate : {0.1, 0.3, 0.5, 0.7}) {
    auto sampled = run(rate);
    // Re-rank by the sampled F-score (the ranking a user of the sampled run
    // would see); gains are the exact F-scores, so NDCG measures how close
    // the sampled ranking is to the exact one.
    std::stable_sort(sampled.begin(), sampled.end(),
                     [](const Explanation& a, const Explanation& b) {
                       return a.fscore_sampled > b.fscore_sampled;
                     });
    std::vector<double> gains;
    std::vector<std::string> sampled_keys;
    for (size_t i = 0; i < sampled.size() && i < k; ++i) {
      gains.push_back(sampled[i].fscore);
      sampled_keys.push_back(sampled[i].pattern + "#" +
                             std::to_string(sampled[i].primary));
    }
    double recall = truth_keys.empty()
                        ? 0.0
                        : static_cast<double>(TopKMatch(truth_keys, sampled_keys, k)) /
                              static_cast<double>(truth_keys.size());
    std::printf("%-10.1f %8.3f %8.3f\n", rate, Ndcg(gains), recall);
  }
}

}  // namespace

int main() {
  NbaOptions nba_opt;
  nba_opt.scale_factor = EnvScale(0.15);
  Database nba = MakeNbaDatabase(nba_opt).ValueOrDie();
  SchemaGraph nba_sg = MakeNbaSchemaGraph(nba).ValueOrDie();

  MimicOptions mimic_opt;
  mimic_opt.scale_factor = EnvScale(0.1);
  Database mimic = MakeMimicDatabase(mimic_opt).ValueOrDie();
  SchemaGraph mimic_sg = MakeMimicSchemaGraph(mimic).ValueOrDie();

  std::printf("== APT sizes and LCA sampling (Figure 10a-10e analogue) ==\n");
  std::vector<FixedGraph> graphs;
  // On Qnba4 the PT alone and PT - player_salary - player yield no LCA
  // candidates, so their runtime column read 0 ms. These two graphs yield
  // candidates (chosen by MineJoinGraph's lca_candidates, not by timings).
  graphs.push_back({"Omega1", &nba, &nba_sg, NbaQuerySql(4), NbaQuestion(4),
                    BuildPathJoinGraph(nba_sg, "team", {"play_for", "player"})
                        .ValueOrDie()});
  graphs.push_back({"Omega2", &nba, &nba_sg, NbaQuerySql(4), NbaQuestion(4),
                    BuildPathJoinGraph(nba_sg, "game",
                                       {"player_game_stats", "player"})
                        .ValueOrDie()});
  graphs.push_back({"Omega3", &mimic, &mimic_sg, MimicQuerySql(4),
                    MimicQuestion(4), JoinGraph::PtOnly()});
  graphs.push_back({"Omega4", &mimic, &mimic_sg, MimicQuerySql(4),
                    MimicQuestion(4),
                    BuildPathJoinGraph(mimic_sg, "admissions",
                                       {"patients_admit_info", "patients"})
                        .ValueOrDie()});
  for (const auto& fg : graphs) {
    std::printf("%s:\n", fg.name);
    LcaSamplingSweep(fg);
  }

  F1SamplingQuality("NBA Qnba4", nba, nba_sg, NbaQuerySql(4), NbaQuestion(4));
  F1SamplingQuality("MIMIC Qmimic4", mimic, mimic_sg, MimicQuerySql(4),
                    MimicQuestion(4));
  return 0;
}
