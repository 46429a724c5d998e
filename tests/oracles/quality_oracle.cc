#include "tests/oracles/oracles.h"

namespace cajade {

namespace {

/// Precision/recall/F-score from raw counts (Definition 7), restated from
/// the engine's CoverageScorer.
PatternScores ScoresFromCounts(int64_t covered_primary, int64_t covered_other,
                               int64_t n_primary) {
  PatternScores s;
  s.tp = covered_primary;
  s.fp = covered_other;
  s.fn = n_primary - covered_primary;
  double denom_p = static_cast<double>(s.tp + s.fp);
  double denom_r = static_cast<double>(s.tp + s.fn);
  s.precision = denom_p > 0 ? static_cast<double>(s.tp) / denom_p : 0.0;
  s.recall = denom_r > 0 ? static_cast<double>(s.tp) / denom_r : 0.0;
  s.fscore = (s.precision + s.recall) > 0
                 ? 2.0 * s.precision * s.recall / (s.precision + s.recall)
                 : 0.0;
  return s;
}

}  // namespace

void ComputeCoverage(const Pattern& pattern, const ShardedApt& apt,
                     const MetricsView& view, std::vector<uint8_t>* covered) {
  covered->assign(apt.pt_rows_used.size(), 0);
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    const AptShard& shard = apt.shards[si];
    auto visit = [&](size_t r) {
      const int32_t p = shard.pt_row[r];
      if ((*covered)[p]) return;  // a PT row is covered once
      if (pattern.Matches(shard.table, r)) (*covered)[p] = 1;
    };
    if (view.all_rows) {
      for (size_t r = 0; r < shard.num_rows(); ++r) visit(r);
    } else {
      for (int32_t r : view.rows[si]) visit(static_cast<size_t>(r));
    }
  }
}

PatternScores ScoreFromCoverage(const std::vector<uint8_t>& covered,
                                const PtClasses& classes,
                                const MetricsView& view, int primary) {
  int64_t covered_primary = 0, covered_other = 0;
  for (size_t p = 0; p < covered.size(); ++p) {
    if (!view.pt_sampled[p] || !covered[p]) continue;
    if (classes[p] == primary) {
      ++covered_primary;
    } else {
      ++covered_other;
    }
  }
  int64_t n_primary =
      static_cast<int64_t>(primary == 0 ? view.n1 : view.n2);
  return ScoresFromCounts(covered_primary, covered_other, n_primary);
}

PatternScores ScorePattern(const Pattern& pattern, const ShardedApt& apt,
                           const PtClasses& classes, const MetricsView& view,
                           int primary) {
  std::vector<uint8_t> covered;
  ComputeCoverage(pattern, apt, view, &covered);
  return ScoreFromCoverage(covered, classes, view, primary);
}

void CoverageFromRows(const std::vector<int32_t>& rows,
                      const std::vector<int32_t>& pt_row,
                      CoverageBitmap* covered) {
  for (int32_t r : rows) covered->Set(static_cast<size_t>(pt_row[r]));
}

}  // namespace cajade
