// Reproduces the analysis pipeline of the user study (Tables 7/8/9) with
// SIMULATED raters — human judgment is not reproducible offline; see
// docs/DESIGN.md's substitution table. 20 raters (5 with domain knowledge)
// score the top-5 provenance-only explanations and the top-5 CaJaDE
// explanations for UQ1 (GSW 2015-16 vs 2012-13 on Q1). A rater's score is
// a noisy monotone function of the explanation's quality (F-score/precision
// mix), domain-knowledge raters having less noise. We then compute the paper's
// agreement metrics: average ratings, Kendall-tau rank distance and NDCG of
// the metric rankings against the (simulated) rating ranking, with the
// drop-most-controversial ablation.
//
// Expected shape (paper): CaJaDE's explanations rate at least as well as
// provenance-only ones; F-score ranks CaJaDE's explanations most
// consistently with the ratings; dropping the most controversial
// explanation halves the pairwise error.

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "src/metrics/ranking.h"

using namespace cajade;
using namespace cajade::bench;

namespace {

struct RatedExplanation {
  Explanation e;
  std::vector<double> ratings;  // one per rater

  double AvgRating(bool domain_only, int domain_raters) const {
    double sum = 0;
    int n = 0;
    for (size_t i = 0; i < ratings.size(); ++i) {
      if (domain_only && static_cast<int>(i) >= domain_raters) break;
      sum += ratings[i];
      ++n;
    }
    return n > 0 ? sum / n : 0;
  }

  double Stdev() const {
    double mean = AvgRating(false, 0);
    double var = 0;
    for (double r : ratings) var += (r - mean) * (r - mean);
    return std::sqrt(var / static_cast<double>(ratings.size()));
  }
};

void SimulateRatings(std::vector<RatedExplanation>* explanations,
                     int num_raters, int domain_raters, Rng* rng) {
  for (auto& re : *explanations) {
    double quality = 0.55 * re.e.fscore + 0.45 * re.e.precision;
    // A per-explanation idiosyncrasy models "subjective" explanations.
    double idiosyncrasy = rng->Normal(0, 0.35);
    for (int r = 0; r < num_raters; ++r) {
      bool domain = r < domain_raters;
      double noise = rng->Normal(0, domain ? 0.45 : 0.8);
      double score = 1.0 + 4.0 * quality + idiosyncrasy + noise;
      re.ratings.push_back(std::min(5.0, std::max(1.0, std::round(score))));
    }
  }
}

void AgreementRow(const char* label, const std::vector<RatedExplanation>& set,
                  double (*metric)(const Explanation&), bool drop_worst,
                  int domain_raters) {
  std::vector<RatedExplanation> items = set;
  if (drop_worst && items.size() > 1) {
    auto worst = std::max_element(
        items.begin(), items.end(),
        [](const RatedExplanation& a, const RatedExplanation& b) {
          return a.Stdev() < b.Stdev();
        });
    items.erase(worst);
  }
  std::vector<double> metric_scores, rating_scores, rating_scores_domain;
  for (const auto& re : items) {
    metric_scores.push_back(metric(re.e));
    rating_scores.push_back(re.AvgRating(false, 0));
    rating_scores_domain.push_back(re.AvgRating(true, domain_raters));
  }
  // Ranking by metric, gains = avg rating.
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return metric_scores[a] > metric_scores[b];
  });
  std::vector<double> gains, gains_domain;
  for (size_t i : order) {
    gains.push_back(rating_scores[i]);
    gains_domain.push_back(rating_scores_domain[i]);
  }
  std::printf("  %-10s %-6s kendall=%5.2f ndcg=%.3f | domain: kendall=%5.2f "
              "ndcg=%.3f\n",
              label, drop_worst ? "(-1)" : "(all)",
              KendallTauFromScores(metric_scores, rating_scores), Ndcg(gains),
              KendallTauFromScores(metric_scores, rating_scores_domain),
              Ndcg(gains_domain));
}

}  // namespace

int main() {
  NbaOptions opt;
  opt.scale_factor = EnvScale(0.05);
  Database db = MakeNbaDatabase(opt).ValueOrDie();
  SchemaGraph sg = MakeNbaSchemaGraph(db).ValueOrDie();
  std::string sql = NbaQuerySql(4);
  UserQuestion question =
      UserQuestion::TwoPoint(Where({{"season_name", Value("2015-16")}}),
                             Where({{"season_name", Value("2012-13")}}));

  // Provenance-only explanations: mining restricted to the PT-only graph.
  std::vector<RatedExplanation> prov_set, cajade_set;
  {
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->max_join_graph_edges = 0;  // Omega_0 only
    auto result = explainer.Explain(sql, question).ValueOrDie();
    auto top = DeduplicateExplanations(result.explanations);
    for (size_t i = 0; i < top.size() && i < 5; ++i) prov_set.push_back({top[i], {}});
  }
  {
    Explainer explainer(&db, &sg);
    explainer.mutable_config()->max_join_graph_edges = EnvEdges(2);
    auto result = explainer.Explain(sql, question).ValueOrDie();
    auto top = DeduplicateExplanations(result.explanations);
    for (size_t i = 0; i < top.size() && i < 5; ++i) {
      cajade_set.push_back({top[i], {}});
    }
  }

  const int kRaters = 20;
  const int kDomainRaters = 5;
  Rng rng(2021);
  SimulateRatings(&prov_set, kRaters, kDomainRaters, &rng);
  SimulateRatings(&cajade_set, kRaters, kDomainRaters, &rng);

  std::printf("== Simulated user study (UQ1; %d raters, %d with domain "
              "knowledge) ==\n",
              kRaters, kDomainRaters);
  std::printf("NOTE: ratings are simulated (see docs/DESIGN.md); the table mirrors "
              "the paper's analysis pipeline, not human judgments.\n\n");

  auto print_set = [&](const char* name, const std::vector<RatedExplanation>& set) {
    std::printf("%s explanations:\n", name);
    for (size_t i = 0; i < set.size(); ++i) {
      std::printf("  Expl%zu avg=%.2f (domain=%.2f, stdev=%.2f) F=%.2f P=%.2f "
                  "R=%.2f  %s\n",
                  i + 1, set[i].AvgRating(false, 0),
                  set[i].AvgRating(true, kDomainRaters), set[i].Stdev(),
                  set[i].e.fscore, set[i].e.precision, set[i].e.recall,
                  set[i].e.pattern.c_str());
    }
    std::printf("\n");
  };
  print_set("Provenance-only", prov_set);
  print_set("CaJaDE", cajade_set);

  auto fscore = [](const Explanation& e) { return e.fscore; };
  auto recall = [](const Explanation& e) { return e.recall; };
  auto precision = [](const Explanation& e) { return e.precision; };

  std::printf("Ranking agreement (Table 9 analogue):\n");
  std::printf(" Provenance-only:\n");
  for (bool drop : {false, true}) {
    AgreementRow("F-score", prov_set, fscore, drop, kDomainRaters);
    AgreementRow("recall", prov_set, recall, drop, kDomainRaters);
    AgreementRow("precision", prov_set, precision, drop, kDomainRaters);
  }
  std::printf(" CaJaDE:\n");
  for (bool drop : {false, true}) {
    AgreementRow("F-score", cajade_set, fscore, drop, kDomainRaters);
    AgreementRow("recall", cajade_set, recall, drop, kDomainRaters);
    AgreementRow("precision", cajade_set, precision, drop, kDomainRaters);
  }
  return 0;
}
