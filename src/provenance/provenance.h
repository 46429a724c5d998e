// Why-provenance for single-block SPJA queries (paper Definition 1).
//
// The provenance table PT(Q, D) of an aggregate query is the pre-aggregation
// join result: a subset of the cross product of the accessed relations. Each
// output tuple t's provenance PT(Q, D, t) is the partition of those rows
// that fed t's group. Attributes are renamed prov_<relation>_<attribute>
// (underscores in relation names doubled), matching the paper's appendix
// output, e.g. prov_player__game__stats_minutes.
//
// Ownership and thread-safety: provenance tables and annotations are
// caller-owned values produced by the executor; once built they are only
// read, so sharing them across mining threads is safe.

#ifndef CAJADE_PROVENANCE_PROVENANCE_H_
#define CAJADE_PROVENANCE_PROVENANCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/sql/expr.h"
#include "src/storage/database.h"

namespace cajade {

/// Mangles a relation name for provenance-column naming ("player_game_stats"
/// -> "player__game__stats").
std::string MangleRelationName(const std::string& relation);

/// Builds the provenance column name for (relation, attribute).
std::string ProvenanceColumnName(const std::string& relation,
                                 const std::string& attribute);

/// \brief The provenance of a query: output, PT, and the per-output-tuple
/// partition of PT rows.
struct ProvenanceTable {
  /// The query answer.
  Table result;
  /// PT(Q, D): one row per pre-aggregation join row, prov_-renamed columns.
  Table table;
  /// Query FROM aliases in order, and the relations they name.
  std::vector<std::string> aliases;
  std::vector<std::string> relations;
  /// alias index -> first PT column of that alias's attributes.
  std::vector<int> alias_column_offset;
  /// output row -> PT row ids (PT(Q, D, t)).
  std::vector<std::vector<int64_t>> output_to_pt_rows;
  /// Output-column indexes holding group-by values.
  std::vector<int> group_by_output_cols;
  /// PT column indexes used as group-by attributes (excluded from patterns,
  /// Section 2.5).
  std::vector<int> group_by_pt_cols;
  /// The same attributes as (relation, attribute) pairs, so that context
  /// copies of query relations in an APT exclude them too.
  std::vector<std::pair<std::string, std::string>> group_by_source_attrs;

  /// Content fingerprint of the PT rows, computed lazily on first use and
  /// cached. Equal contents give equal values: every cell, every NULL
  /// position and every row position counts; numbers hash by bit pattern
  /// and strings by their bytes, so PTs whose string columns use different
  /// dictionaries or codes for equal strings agree. One typed pass per
  /// column hashes each distinct string once. The value is process-local
  /// (it keys in-memory caches only) and not stable across builds.
  /// Callers keying caches that outlive one Explain call (the APT prefix
  /// cache, the result cache's validation tag) fold it in so two queries
  /// whose PTs merely agree on shape and row count can never alias each
  /// other's cached states. Safe to call concurrently; racing computations
  /// store the same deterministic value. The PT must not be mutated after
  /// the first call.
  uint64_t ContentFingerprint() const;

  /// PT column index of `relation`.`attribute`, searching all aliases bound
  /// to that relation. -1 when absent.
  int FindColumn(const std::string& relation, const std::string& attribute) const;

  /// PT column index for a specific alias.
  int FindColumnForAlias(const std::string& alias,
                         const std::string& attribute) const;

 private:
  /// An atomic cache slot that keeps the enclosing struct copyable and
  /// movable (copies carry the cached value; concurrent stores all write
  /// the same deterministic fingerprint).
  struct FingerprintCache {
    std::atomic<uint64_t> value{0};
    FingerprintCache() = default;
    FingerprintCache(const FingerprintCache& o)
        : value(o.value.load(std::memory_order_relaxed)) {}
    FingerprintCache& operator=(const FingerprintCache& o) {
      value.store(o.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };

  /// ContentFingerprint cache; 0 = not yet computed (computed values are
  /// forced nonzero).
  mutable FingerprintCache content_fingerprint_;
};

/// Executes `query` against `db` and assembles its provenance. Constructs a
/// throwaway QueryExecutor, so each call recomputes the planner's table
/// statistics; callers issuing repeated queries should hold an executor and
/// use the overload below.
Result<ProvenanceTable> ComputeProvenance(const Database& db,
                                          const ParsedQuery& query);

/// Same, through a caller-owned executor whose cached table statistics (and
/// any future executor state) survive across queries — the Explainer uses
/// one executor for all its provenance computations.
Result<ProvenanceTable> ComputeProvenance(const QueryExecutor& executor,
                                          const ParsedQuery& query);

}  // namespace cajade

#endif  // CAJADE_PROVENANCE_PROVENANCE_H_
