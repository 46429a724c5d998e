// Query execution for the single-block SPJA subset.
//
// Pipeline: per-relation predicate pushdown -> stats-driven greedy hash
// equi-join ordering (smallest estimated build side first) -> one per-call
// JoinBuildIndex per join step over the build side's pushdown survivors
// (dense-counting / dictionary-code / packed composite-key / hash+verify
// layouts over the flat open-addressing multimap) -> residual filters -> working-table materialization -> typed
// hash group-by aggregation with first-seen group order. The working table
// (the pre-aggregation join result) and the per-group row partitions are
// retained: they are exactly the why-provenance the explanation engine needs
// (paper Definition 1).
//
// Ownership and thread-safety: the executor borrows the caller's Database
// for the duration of a call and returns fresh caller-owned result tables.
// Its only state is the statistics catalog below, which is safe for
// concurrent use, so concurrent Execute calls on one instance are safe.

#ifndef CAJADE_EXEC_EXECUTOR_H_
#define CAJADE_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sql/expr.h"
#include "src/stats/table_stats.h"
#include "src/storage/database.h"

namespace cajade {

/// The materialized select-project-join result, before aggregation.
struct SpjOutput {
  /// Columns named "<alias>.<column>".
  Table table;
  /// FROM-clause aliases in order.
  std::vector<std::string> aliases;
  /// Relation name per alias.
  std::vector<std::string> relations;
  /// source_rows[a][r]: base-table row id of alias a in working row r.
  std::vector<std::vector<int64_t>> source_rows;
};

/// Full result of an aggregate query, with provenance.
struct QueryOutput {
  /// The query answer.
  Table result;
  /// result row -> working-table rows contributing to it.
  std::vector<std::vector<int64_t>> group_rows;
  /// Output-column indexes holding group-by values.
  std::vector<int> group_by_output_cols;
  /// The pre-aggregation join result.
  SpjOutput spj;
};

/// \brief Executes parsed queries against a Database.
class QueryExecutor {
 public:
  explicit QueryExecutor(const Database* db) : db_(db) {}

  const Database* db() const { return db_; }

  /// The executor's statistics catalog, which callers running other phases
  /// over the same database (join-graph enumeration, APT index builds)
  /// share. It is safe for concurrent use.
  StatsCatalog* stats() const { return &stats_; }

  /// Runs the query, returning only the answer table.
  Result<Table> Execute(const ParsedQuery& query) const;

  /// Runs the query, additionally returning the working table and group
  /// partitions (why-provenance).
  Result<QueryOutput> ExecuteWithProvenance(const ParsedQuery& query) const;

  /// Runs the select-project-join block through the typed join kernels.
  /// Working rows are emitted grouped by the first alias's selected rows in
  /// order; join matches expand in build-side selection order.
  Result<SpjOutput> ExecuteSpj(const ParsedQuery& query) const;

 private:
  const Database* db_;
  /// Statistics of the base tables, computed on first use and kept across
  /// queries. The planner reads full statistics for its ndv tie-break and
  /// range statistics for each join step's index build.
  mutable StatsCatalog stats_;
};

}  // namespace cajade

#endif  // CAJADE_EXEC_EXECUTOR_H_
