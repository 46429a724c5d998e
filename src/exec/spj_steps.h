// The steps of select-project-join execution around the join loop:
// binding and single-alias predicate pushdown before it, residual filters
// and working-table materialization after it. QueryExecutor::ExecuteSpj
// runs its typed join loop between them; the tuple-key differential oracle
// (tests/oracles) runs the seed's join loop between the same steps, so the
// two executors differ only in how they join.
//
// Ownership and thread-safety: SpjState borrows the base tables through
// shared TablePtr handles and owns its bound conjuncts and row selections;
// the functions are stateless, and concurrent calls on distinct states are
// safe.

#ifndef CAJADE_EXEC_SPJ_STEPS_H_
#define CAJADE_EXEC_SPJ_STEPS_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/sql/expr.h"
#include "src/storage/database.h"

namespace cajade {

/// Everything the join loop reads and updates: the base tables, the bound
/// WHERE conjuncts with the aliases each references, which conjuncts a step
/// has already applied, and each alias's pushdown survivors.
struct SpjState {
  size_t n_aliases = 0;
  std::vector<TablePtr> tables;
  std::vector<ExprPtr> conjuncts;
  std::vector<std::set<int>> conjunct_aliases;
  std::vector<bool> consumed;
  /// Base rows per alias surviving single-alias predicate pushdown.
  std::vector<std::vector<int64_t>> selected;
};

/// An equality conjunct between two single columns of distinct aliases.
struct EquiCond {
  int alias_a = -1;
  int col_a = -1;
  int alias_b = -1;
  int col_b = -1;
};

/// Whether `e` is an equality between single columns of two distinct
/// aliases; if so, fills `*out`.
bool AsEquiCond(const Expr& e, EquiCond* out);

/// Resolves base tables, binds WHERE conjuncts, and runs single-alias
/// predicate pushdown.
Status PrepareSpj(const Database* db, const ParsedQuery& query, SpjState* st);

/// Picks the smallest unbound relation for a cross-product step (no join
/// predicate connects the remaining aliases to the bound set).
size_t SmallestUnbound(const SpjState& st, const std::vector<int>& bound);

/// Applies residual multi-alias conjuncts and materializes the working table
/// (columns named "<alias>.<column>") plus per-alias source rows.
/// `tuple_cols[k][t]` is the base row of alias `bound[k]` in join tuple t.
Result<SpjOutput> FinishSpj(const ParsedQuery& query, const SpjState& st,
                            const std::vector<int>& bound,
                            std::vector<std::vector<int64_t>> tuple_cols);

}  // namespace cajade

#endif  // CAJADE_EXEC_SPJ_STEPS_H_
