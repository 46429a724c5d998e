// Columnar predicate masks for pattern matching. A PatternPredicate is
// compiled once against a table into a typed predicate (raw data-array
// pointers, no Value boxing, no per-row virtual dispatch) that evaluates 64
// rows per output word with branch-free compares (EvalMask). NULLs fold in
// by AND-NOT of the packed null bytes, skipped entirely on null-free
// columns.
//
// A pattern's match mask is the AND of its predicates' masks: the miner
// builds every mask it scores that way, refinement candidates and the
// exact re-scoring of the winners alike, and no row-id list is ever
// materialized. Pattern::Matches is the scalar definition the masks are
// tested against.
//
// Ownership and thread-safety: a compiled predicate borrows raw pointers
// into the table's column storage — the table must outlive it and must not
// be mutated (appended to, dictionary-extended) while it is live. It holds
// no mutable state after Compile, so one compiled predicate may be
// evaluated from many threads concurrently; output masks are caller-owned
// and must not be shared across concurrent EvalMask calls.
//
// Masks equal the scalar Pattern::Matches loop except for one deliberate
// fix: INT64 comparisons run against an exact int64 threshold (derived from
// the predicate's constant), where Pattern::Matches widens through double
// and silently equates int64s that differ only beyond 2^53. Null cells
// never match; string predicates require an in-dictionary code and the kEq
// operator; DOUBLE comparisons happen in the double domain.

#ifndef CAJADE_MINING_PATTERN_KERNEL_H_
#define CAJADE_MINING_PATTERN_KERNEL_H_

#include <cstdint>

#include "src/mining/pattern.h"
#include "src/storage/table.h"

namespace cajade {

/// \brief One pattern predicate compiled against a concrete table.
///
/// Holds raw pointers into the table's column storage; the table must
/// outlive the compiled predicate and not be appended to while it is in use.
struct CompiledPredicate {
  enum class Kind : uint8_t {
    kIntEq,
    kIntLe,
    kIntGe,
    kDoubleEq,
    kDoubleLe,
    kDoubleGe,
    kCodeEq,
    kNever,  ///< predicate can match no row (e.g. constant not in dictionary)
  };

  Kind kind = Kind::kNever;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const int32_t* codes = nullptr;
  const uint8_t* nulls = nullptr;
  double num = 0.0;
  /// Exact INT64 threshold for kInt* kinds. Integral constants carry over
  /// exactly (no 2^53 collapse); fractional/oversized double constants
  /// become the equivalent int64 bound (floor for <=, ceil for >=) or kNever.
  int64_t inum = 0;
  int32_t code = -1;
  /// False when the column holds no NULLs: mask evaluation skips the null
  /// mask entirely (the null-free-chunk fast path).
  bool col_has_nulls = false;

  static CompiledPredicate Compile(const PatternPredicate& pred, const Table& table);

  /// Evaluates rows [0, num_rows) into `out` (CoverageBitmap::NumWords(
  /// num_rows) words, overwritten): bit i of word w = row w*64 + i matches.
  /// Tail bits beyond num_rows are zero. Returns the number of matching rows.
  uint64_t EvalMask(size_t num_rows, uint64_t* out) const;
};

}  // namespace cajade

#endif  // CAJADE_MINING_PATTERN_KERNEL_H_
