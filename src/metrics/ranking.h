// Ranking-agreement metrics used in the paper's evaluation: NDCG (Figures
// 10f and Table 9), Kendall-tau rank distance (Table 9), and top-k
// match/recall of sampled versus exact pattern lists (Figures 10b-e, 10g).
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_METRICS_RANKING_H_
#define CAJADE_METRICS_RANKING_H_

#include <string>
#include <vector>

namespace cajade {

/// Discounted cumulative gain of `relevance` in the given order.
double Dcg(const std::vector<double>& relevance);

/// NDCG of a ranking: `relevance[i]` is the true relevance of the item the
/// ranking places at position i. 1.0 when the ranking sorts by true
/// relevance; in [0, 1] otherwise (0 when all relevances are 0).
double Ndcg(const std::vector<double>& relevance);

/// Unnormalized count of discordant pairs between two numeric score lists
/// over the same items (ties in either list are skipped), as used for the
/// "Avg. Kendall tau rank distance" rows of Table 9.
double KendallTauFromScores(const std::vector<double>& scores_a,
                            const std::vector<double>& scores_b);

/// |top-k(a) intersect top-k(b)| — the "match" count of Figures 10b-e.
size_t TopKMatch(const std::vector<std::string>& a,
                 const std::vector<std::string>& b, size_t k);

}  // namespace cajade

#endif  // CAJADE_METRICS_RANKING_H_
