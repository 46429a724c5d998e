#include "src/metrics/ranking.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace cajade {

double Dcg(const std::vector<double>& relevance) {
  double dcg = 0.0;
  for (size_t i = 0; i < relevance.size(); ++i) {
    dcg += relevance[i] / std::log2(static_cast<double>(i) + 2.0);
  }
  return dcg;
}

double Ndcg(const std::vector<double>& relevance) {
  double dcg = Dcg(relevance);
  std::vector<double> ideal = relevance;
  std::sort(ideal.begin(), ideal.end(), std::greater<double>());
  double idcg = Dcg(ideal);
  return idcg > 0 ? dcg / idcg : 0.0;
}

double KendallTauFromScores(const std::vector<double>& scores_a,
                            const std::vector<double>& scores_b) {
  size_t n = std::min(scores_a.size(), scores_b.size());
  double discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double da = scores_a[i] - scores_a[j];
      double db = scores_b[i] - scores_b[j];
      if (da == 0 || db == 0) continue;
      if ((da > 0) != (db > 0)) discordant += 1;
    }
  }
  return discordant;
}

size_t TopKMatch(const std::vector<std::string>& a,
                 const std::vector<std::string>& b, size_t k) {
  std::unordered_set<std::string> top_a;
  for (size_t i = 0; i < a.size() && i < k; ++i) top_a.insert(a[i]);
  size_t match = 0;
  for (size_t i = 0; i < b.size() && i < k; ++i) {
    if (top_a.count(b[i]) > 0) ++match;
  }
  return match;
}

}  // namespace cajade
