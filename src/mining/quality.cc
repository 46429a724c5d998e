#include "src/mining/quality.h"

#include <cassert>

namespace cajade {

MetricsView FullView(const ShardedApt& apt, const PtClasses& classes) {
  MetricsView view;
  view.all_rows = true;
  view.pt_sampled.assign(apt.pt_rows_used.size(), 1);
  for (size_t p = 0; p < classes.size(); ++p) {
    if (classes[p] == 0) {
      ++view.n1;
    } else {
      ++view.n2;
    }
  }
  view.sampled_rows = apt.num_rows();
  return view;
}

MetricsView SampledView(const ShardedApt& apt, const PtClasses& classes,
                        double rate, Rng* rng) {
  if (rate >= 1.0) return FullView(apt, classes);
  MetricsView view;
  view.all_rows = false;
  size_t m = apt.pt_rows_used.size();
  // PT positions are drawn first, in position order: the RNG consumption is
  // independent of the sharding, which is what keeps sampled scores
  // bit-identical at any shard size.
  view.pt_sampled.assign(m, 0);
  for (size_t p = 0; p < m; ++p) {
    if (rng->Bernoulli(rate)) view.pt_sampled[p] = 1;
  }
  // Guarantee at least one sampled position per class so ratios are defined.
  bool has[2] = {false, false};
  for (size_t p = 0; p < m; ++p) {
    if (view.pt_sampled[p]) has[classes[p]] = true;
  }
  for (int cls = 0; cls < 2; ++cls) {
    if (has[cls]) continue;
    for (size_t p = 0; p < m; ++p) {
      if (classes[p] == cls) {
        view.pt_sampled[p] = 1;
        break;
      }
    }
  }
  for (size_t p = 0; p < m; ++p) {
    if (!view.pt_sampled[p]) continue;
    if (classes[p] == 0) {
      ++view.n1;
    } else {
      ++view.n2;
    }
  }
  view.rows.resize(apt.shards.size());
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    const AptShard& shard = apt.shards[si];
    view.rows[si].reserve(shard.num_rows() / 2);
    for (size_t r = 0; r < shard.num_rows(); ++r) {
      if (view.pt_sampled[shard.pt_row[r]]) {
        view.rows[si].push_back(static_cast<int32_t>(r));
      }
    }
    view.sampled_rows += view.rows[si].size();
  }
  return view;
}

namespace {

/// Precision/recall/F-score from raw counts (Definition 7).
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

void CoverageScorer::Build(const PtClasses& classes, const MetricsView& view) {
  size_t m = view.pt_sampled.size();
  class_mask_[0].Reset(m);
  class_mask_[1].Reset(m);
  for (size_t p = 0; p < m; ++p) {
    if (view.pt_sampled[p]) class_mask_[classes[p]].Set(p);
  }
  n_class_[0] = view.n1;
  n_class_[1] = view.n2;
}

void CoverageScorer::CoverageFromMask(const uint64_t* rows, size_t num_words,
                                      const std::vector<int32_t>& pt_row,
                                      CoverageBitmap* covered) {
  ForEachSetBit(rows, num_words, [&](size_t r) {
    covered->Set(static_cast<size_t>(pt_row[r]));
  });
}

PatternScores CoverageScorer::Score(const CoverageBitmap& covered,
                                    int primary) const {
  assert(covered.num_bits() == num_positions());
  return Score(covered.words().data(), primary);
}

PatternScores CoverageScorer::Score(const uint64_t* covered_words,
                                    int primary) const {
  const size_t words = class_mask_[0].num_words();
  int64_t covered_primary = static_cast<int64_t>(AndPopcount(
      covered_words, class_mask_[primary].words().data(), words));
  int64_t covered_other = static_cast<int64_t>(AndPopcount(
      covered_words, class_mask_[1 - primary].words().data(), words));
  return ScoresFromCounts(covered_primary, covered_other,
                          static_cast<int64_t>(n_class_[primary]));
}

}  // namespace cajade
