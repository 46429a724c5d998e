// Association measures between attributes: Pearson correlation for
// numeric-numeric, Cramer's V for categorical-categorical, and the
// correlation ratio (eta) for mixed pairs. Substrate for VARCLUS-style
// attribute clustering (paper Section 3.1).
//
// Ownership and thread-safety: stateless functions over a borrowed read-only
// feature matrix; results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_ML_CORRELATION_H_
#define CAJADE_ML_CORRELATION_H_

#include <cstdint>
#include <vector>

#include "src/ml/feature_matrix.h"

namespace cajade {

/// |Pearson r| of two numeric vectors (NaN pairs skipped); 0 when degenerate.
double PearsonAbs(const std::vector<double>& x, const std::vector<double>& y);

/// A categorical column's codes numbered 0..distinct-1 in ascending code
/// order, with kNull for NaN: what Cramer's V counts over, computed once per
/// column rather than once per pair.
struct CodeRanks {
  static constexpr uint32_t kNull = UINT32_MAX;
  std::vector<uint32_t> rank;  // per row
  uint32_t distinct = 0;
};

/// Ranks `codes` (each truncated to int64, as Cramer's V compares them).
CodeRanks RankCodes(const std::vector<double>& codes);

/// Cramer's V of two categorical (code-valued) vectors; in [0, 1]. Counts
/// into dense per-code arrays and sums chi-squared over the codes present
/// in ascending order, so the floating-point sum is that of ordered maps.
double CramersV(const std::vector<double>& x, const std::vector<double>& y);
double CramersV(const CodeRanks& x, const CodeRanks& y);

/// Correlation ratio eta: how much of numeric `y`'s variance the categorical
/// `x` explains; in [0, 1].
double CorrelationRatio(const std::vector<double>& categories,
                        const std::vector<double>& values);

/// \brief Pairwise association between the features of one matrix.
class Association {
 public:
  /// Borrows `data`, which must outlive this object; ranks each
  /// categorical feature's codes once.
  explicit Association(const FeatureMatrix& data);

  /// Dispatches on the feature kinds: Pearson (num-num), Cramer's V
  /// (cat-cat), eta (mixed). Symmetric; returns a value in [0, 1].
  double operator()(int f1, int f2) const;

 private:
  const FeatureMatrix* data_;
  std::vector<CodeRanks> ranks_;  // per categorical feature
};

}  // namespace cajade

#endif  // CAJADE_ML_CORRELATION_H_
