// Explanation Tables baseline (Gebaly et al., VLDB 2014), the comparison
// system of the paper's Section 5.5: greedily builds a small "explanation
// table" of categorical patterns that maximally reduces the KL divergence
// between a maximum-entropy-style estimate and a binary outcome column.
// Candidates come from the LCA meet of a sample with itself (the sample-size
// knob drives the quadratic runtime the paper's Figure 11 shows).
//
// Ownership and thread-safety: stateless free functions over borrowed
// read-only tables; the returned explanation table is a fresh caller-owned
// value, so concurrent calls are safe.

#ifndef CAJADE_BASELINES_EXPLANATION_TABLES_H_
#define CAJADE_BASELINES_EXPLANATION_TABLES_H_

#include <vector>

#include "src/common/rng.h"
#include "src/mining/apt.h"
#include "src/mining/pattern.h"
#include "src/mining/quality.h"

namespace cajade {

struct EtOptions {
  /// Rows drawn for LCA candidate generation (paper sweeps 16..512).
  size_t sample_size = 64;
  /// Number of patterns in the output table.
  size_t table_size = 20;
  /// Candidate pool cap per iteration (0 = unbounded, faithful quadratic).
  size_t max_candidates = 0;
};

/// One explanation-table row.
struct EtPattern {
  Pattern pattern;
  double outcome_rate = 0.0;  ///< P(outcome=1 | pattern)
  int64_t count = 0;          ///< matching rows
  double gain = 0.0;          ///< KL-divergence reduction when added
};

/// \brief Greedy explanation-table construction.
///
/// `outcome[r]` is the binary outcome of global APT row r (shard rows in
/// shard order; CaJaDE comparisons use "row belongs to t1's provenance").
/// Only categorical attributes among `apt.pattern_cols` participate (the
/// published algorithm is categorical; the paper pre-bins numeric columns
/// when feeding ET).
class ExplanationTables {
 public:
  explicit ExplanationTables(EtOptions options) : options_(options) {}

  std::vector<EtPattern> Build(const ShardedApt& apt,
                               const std::vector<int8_t>& outcome,
                               Rng* rng) const;

 private:
  EtOptions options_;
};

/// Equi-width binning helper: rewrites numeric pattern-eligible columns of
/// `apt` into categorical bucket labels (the preprocessing step the paper
/// applies before running ET, Appendix A.1). Bins span the range over all
/// shards, and every shard's label column shares one dictionary.
ShardedApt BinNumericColumns(const ShardedApt& apt, int num_bins = 8);

}  // namespace cajade

#endif  // CAJADE_BASELINES_EXPLANATION_TABLES_H_
