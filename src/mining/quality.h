// Quality measures for explanation patterns (paper Definition 7): coverage
// of provenance rows through the APT, precision/recall/F-score of a pattern
// for one output tuple against the other, optionally estimated on a sample
// of the provenance (Section 3.3, lambda_F1-samp).
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_MINING_QUALITY_H_
#define CAJADE_MINING_QUALITY_H_

#include <vector>

#include "src/common/rng.h"
#include "src/mining/apt.h"
#include "src/mining/coverage.h"

namespace cajade {

/// Class labels for PT rows: which user-question output a PT row belongs to.
/// Indexed by position in ShardedApt::pt_rows_used; 0 = t1, 1 = t2.
using PtClasses = std::vector<int8_t>;

/// \brief A (possibly sampled) view of the APT over which metrics are
/// computed. Shard-native: row selections are held per shard (shard-local
/// row ids), so the miner builds each shard's in-view masks from its own
/// rows and merges only coverage popcounts.
struct MetricsView {
  /// Per shard: sampled rows to scan (shard-local ids, ascending). Empty
  /// when `all_rows` (every row of every shard is in view).
  std::vector<std::vector<int32_t>> rows;
  bool all_rows = true;
  /// Per PT position: whether it is in the sample.
  std::vector<uint8_t> pt_sampled;
  /// Sampled class sizes |PT(t1)|, |PT(t2)| (full sizes when not sampling).
  size_t n1 = 0;
  size_t n2 = 0;
  /// Total in-view rows across shards (== total APT rows when `all_rows`).
  size_t sampled_rows = 0;
};

/// Builds the exact (no sampling) view.
MetricsView FullView(const ShardedApt& apt, const PtClasses& classes);

/// Builds a sampled view: PT positions are sampled at `rate` (at least one
/// from each class kept when available), and APT rows restricted to sampled
/// positions (the paper's "Sampling for F1" step). The Bernoulli draws are
/// per PT position — independent of how the APT is sharded — so the sampled
/// view (and everything scored on it) is bit-identical at any shard size.
MetricsView SampledView(const ShardedApt& apt, const PtClasses& classes,
                        double rate, Rng* rng);

/// Metric values of a pattern for one primary tuple.
struct PatternScores {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t fn = 0;
  double precision = 0.0;
  double recall = 0.0;
  double fscore = 0.0;
};

/// \brief Popcount-based scorer over packed coverage bitmaps.
///
/// Built once per mining run from the classes and view: per-class masks of
/// sampled PT positions. Scoring a pattern is then AND + popcount against a
/// reusable CoverageBitmap — no byte scan, no per-pattern allocation.
class CoverageScorer {
 public:
  CoverageScorer() = default;
  CoverageScorer(const PtClasses& classes, const MetricsView& view) {
    Build(classes, view);
  }

  void Build(const PtClasses& classes, const MetricsView& view);

  /// Number of PT positions (the size coverage bitmaps must be Reset to).
  size_t num_positions() const { return class_mask_[0].num_bits(); }

  PatternScores Score(const CoverageBitmap& covered, int primary) const;
  /// The same over raw words: `covered_words` holds
  /// CoverageBitmap::NumWords(num_positions()) words.
  PatternScores Score(const uint64_t* covered_words, int primary) const;

  /// For every set bit r of `rows` (a match mask of `num_words` words over
  /// APT rows), sets covered bit pt_row[r] of `*covered` (Reset to
  /// num_positions()). Zero words are skipped, so cost tracks the number of
  /// matching rows, not the APT size. When pt_row is the identity
  /// (ShardedApt::PtRowIsIdentity), skip this and Score the match mask
  /// itself — the mask *is* the coverage set.
  static void CoverageFromMask(const uint64_t* rows, size_t num_words,
                               const std::vector<int32_t>& pt_row,
                               CoverageBitmap* covered);

 private:
  /// Sampled PT positions of class 0 / class 1.
  CoverageBitmap class_mask_[2];
  /// Sampled class sizes (view.n1, view.n2).
  size_t n_class_[2] = {0, 0};
};

}  // namespace cajade

#endif  // CAJADE_MINING_QUALITY_H_
