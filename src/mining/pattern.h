// Summarization patterns (paper Definition 5): conjunctions of predicates
// over APT attributes — equality on categorical attributes, =/<=/>= with a
// threshold on numeric ones. Attributes not mentioned are "don't care" (*).
//
// Ownership and thread-safety: plain value types owned by the caller;
// concurrent const access is safe, mutation of a shared instance requires
// external synchronization.

#ifndef CAJADE_MINING_PATTERN_H_
#define CAJADE_MINING_PATTERN_H_

#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/storage/table.h"

namespace cajade {

enum class PredOp : uint8_t {
  kEq,
  kLe,
  kGe,
};

const char* PredOpToString(PredOp op);

/// One predicate of a pattern.
struct PatternPredicate {
  int col = -1;       ///< APT column index
  PredOp op = PredOp::kEq;
  Value value;        ///< threshold / constant
  // Fast-path caches, valid for the APT the pattern was built for:
  double num = 0.0;   ///< numeric threshold
  int32_t code = -1;  ///< dictionary code for string equality (-1: not in dict)

  /// Builds a predicate with caches resolved against `apt_table`.
  static PatternPredicate Make(const Table& apt_table, int col, PredOp op,
                               Value value);

  /// This predicate's part of Pattern::Key(): column, operator, constant.
  std::string KeyToken() const;
};

/// \brief A summarization pattern.
struct Pattern {
  /// Predicates sorted by (col, op); at most one predicate per column.
  std::vector<PatternPredicate> preds;

  bool empty() const { return preds.empty(); }
  size_t size() const { return preds.size(); }

  /// The predicate on `col`, or null.
  const PatternPredicate* Find(int col) const;

  /// Returns a copy extended with `pred` (keeps sort order).
  Pattern Refine(PatternPredicate pred) const;

  /// Row match test (Definition 5): every predicate must hold; null cells
  /// never match.
  bool Matches(const Table& apt_table, size_t row) const;

  /// Canonical identity string (deduplication, ranking tie-breaks): the
  /// predicates' KeyToken()s joined by '&'.
  std::string Key() const;

  /// Human-readable rendering, e.g. "player=S.Curry AND pts>=23".
  std::string Describe(const Table& apt_table) const;
};

}  // namespace cajade

#endif  // CAJADE_MINING_PATTERN_H_
