// Reusable multi-column hash equi-join kernels on row-id sets. Used by the
// query executor and by augmented-provenance-table materialization.
//
// One engine, JoinBuildIndex: a build-side index over all rows of a table or
// a caller-given row subset, probed by a tuple stream whose key columns may
// live in different base tables (the executor's partial join result).
// Matches come back as (probe index, build row) pairs. The executor builds
// one index per join step over the pushdown survivors; APT materialization
// caches full-table indexes across join graphs. HashEquiJoin is a per-call
// wrapper for (table, row-id set) pairs on both sides.
//
// The index picks a layout from the build side's column types and (when
// provided) precomputed TableStats:
//  - single INT64 key: raw-value offsets, dense counting layout when the key
//    range is small, flat open-addressing table otherwise;
//  - single STRING key: build dictionary codes; a probe column that reads
//    the build column's dictionary object probes with its codes as they
//    are, any other probe dictionary is remapped into the build code space
//    once per probe call;
//  - multi-column INT64/STRING keys whose combined range fits 64 bits:
//    packed composite keys (mixed-radix offsets), which stay injective so
//    probes need no equality re-check;
//  - everything else (DOUBLE keys, oversized ranges): canonical row-key
//    hashes into the flat table with per-entry verification.
//
// Contracts (load-bearing for every caller, from the executor to the
// serving layer):
//  - NULL semantics: a NULL key cell never matches — not even NULL vs NULL,
//    and not as a middle column of a composite key. Enforced by explicit
//    guards in every layout (never by hash-sentinel coincidence), on tree
//    edges and cycle-closing filters alike. GROUP BY deliberately differs
//    (NULLs form one group); that divergence lives in the executor.
//  - Ownership: JoinBuildIndex borrows the build table — it stores raw
//    column pointers and never copies payloads. The table must outlive the
//    index and must not be mutated while the index exists; version-keyed
//    caches (AptIndexCache) enforce this by keying on
//    Table::content_version().
//  - Thread safety: a fully constructed JoinBuildIndex is immutable;
//    Probe() is const and safe to call from any number of threads
//    concurrently. Construction is not synchronized — build on one thread,
//    share afterwards (the caches do this behind a shared_future).
//  - Determinism: matches are emitted grouped by probe index in ascending
//    order, and within one probe tuple in build-row order (the order of the
//    row subset when one is given), regardless of layout. Downstream
//    explanation ranking relies on this stability.

#ifndef CAJADE_EXEC_JOIN_H_
#define CAJADE_EXEC_JOIN_H_

#include <cstdint>
#include <vector>

#include "src/exec/flat_hash.h"
#include "src/stats/table_stats.h"
#include "src/storage/table.h"

namespace cajade {

/// Key columns for an equi-join: left_cols[i] must equal right_cols[i].
struct JoinKeySpec {
  std::vector<int> left_cols;
  std::vector<int> right_cols;
};

/// One probe-side key column: a base-table column plus the row-id stream
/// addressing it. Streams of all key columns passed to one
/// JoinBuildIndex::Probe call must have identical length (one entry per probe
/// tuple); distinct columns may draw rows from distinct streams (and
/// distinct tables).
struct ProbeKeyCol {
  const Column* col;
  const std::vector<int64_t>* rows;
};

/// \brief Joins `left_rows` x `right_rows` on the key spec.
///
/// Output pairs are grouped by left row in the order of `left_rows` (probe
/// side); within one left row, right matches appear in `right_rows` order.
/// Null key values never match (SQL equi-join semantics, including null vs
/// null). Numeric keys compare exactly across INT64/DOUBLE without the 2^53
/// double-precision collapse. A per-call wrapper: builds a JoinBuildIndex
/// over `right_rows` (`right_stats` describes the full right table) and
/// probes it with `left_rows`.
std::vector<std::pair<int64_t, int64_t>> HashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys,
    const TableStats* right_stats = nullptr);

/// Seed value for folding per-cell hashes into a row-key hash.
inline constexpr uint64_t kRowKeyHashSeed = 0x12345678;

/// Order-dependent fold of a per-cell hash into a row-key hash; HashRowKey is
/// exactly this fold of HashKeyCell over the key columns starting from
/// kRowKeyHashSeed. Exposed so callers hashing keys assembled from columns of
/// different tables (executor tuple keys, group-by keys) stay consistent with
/// build-side HashRowKey hashes.
inline uint64_t CombineKeyHash(uint64_t seed, uint64_t cell_hash) {
  return seed ^ (cell_hash + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Canonical hash of one key cell: null hashes to a fixed sentinel, integral
/// numeric values (from either physical type) hash as their int64, other
/// doubles by bit pattern, strings by content. Consistent with KeyCellsEqual
/// across INT64/DOUBLE while preserving full int64 precision.
uint64_t HashKeyCell(const Column& col, int64_t row);

/// Equi-join cell equality (null never equals anything, including null).
/// Numeric comparisons are exact (INT64/INT64 compares integers; INT64 vs
/// DOUBLE matches only when the double holds that exact integer).
bool KeyCellsEqual(const Column& a, int64_t row_a, const Column& b, int64_t row_b);

/// Combines per-column value hashes for `row` over `cols`; helper shared with
/// APT index building and distinct-count statistics. Numeric cells hash a
/// canonical representation (integral values as int64, others by double bit
/// pattern) consistent with RowKeysEqual across INT64/DOUBLE.
uint64_t HashRowKey(const Table& table, int64_t row, const std::vector<int>& cols);

/// Column-wise equality of two rows on the given key columns (null != null).
/// Numeric comparisons are exact (INT64/INT64 compares integers; INT64 vs
/// DOUBLE matches only when the double holds that exact integer).
bool RowKeysEqual(const Table& a, int64_t row_a, const std::vector<int>& cols_a,
                  const Table& b, int64_t row_b, const std::vector<int>& cols_b);

/// Whether any key column of `row` is null. Callers enforcing SQL equi-join
/// semantics (null never matches, including null vs null) use this as the
/// explicit guard instead of relying on hash/equality internals to reject
/// null cells.
inline bool HasNullKey(const Table& t, int64_t row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.column(c).IsNull(row)) return true;
  }
  return false;
}

/// \brief A build-side equi-join index over all rows of one table or a
/// caller-given row subset.
///
/// The layout is planned from the build side alone, so one index serves any
/// number of probes: INT64 columns encode as value offsets from the build
/// minimum (sized from `build_stats` when given, one sequential range scan
/// of the indexed rows otherwise), STRING columns as the build dictionary's
/// codes. The probe side is resolved per Probe() call: probe dictionaries
/// other than the build column's own remap into the build code space,
/// integral DOUBLE probe values match
/// INT64 keys exactly. Dense counting when the packed key range is small,
/// flat open-addressing on the SplitMix64-finalized packed key (a
/// bijection, so typed probes skip verification) otherwise, and canonical
/// hash+verify for DOUBLE or oversized keys.
///
/// Null keys never match (including null vs null, and middle columns of
/// composite keys) in every layout — enforced by explicit null checks in
/// each key extractor, never by hash sentinel behavior — and matches per
/// probe tuple come back in indexed-row order. Cross-type probes that can
/// never match (e.g. a STRING probe against an INT64 build key) produce no
/// pairs.
///
/// The index holds a pointer to `build`, which must outlive it. Instances
/// are immutable after construction and safe for concurrent Probe() calls.
class JoinBuildIndex {
 public:
  /// Indexes `rows` of `build` (nullptr = every row, in row order) on
  /// `build_cols`; matches per probe tuple come back in `rows` order, which
  /// need not ascend and may repeat a row. The subset is read during
  /// construction only. `build_stats` (statistics of the full table; range
  /// statistics suffice) lets planning skip the per-column key-range scan;
  /// stale stats (row-count or arity drift) are ignored.
  JoinBuildIndex(const Table& build, std::vector<int> build_cols,
                 const TableStats* build_stats = nullptr,
                 const std::vector<int64_t>* rows = nullptr);

  /// Joins a probe tuple stream (see ProbeKeyCol; one entry per key column,
  /// `probe.size() == build_cols.size()`) against the indexed rows,
  /// appending (probe index, build row) pairs to `*out` grouped by probe
  /// index in ascending order. Returns false — stopping early — as soon as
  /// `out->size()` exceeds `max_matches` (0 = unlimited), checked after
  /// each probe tuple.
  bool Probe(const std::vector<ProbeKeyCol>& probe, size_t n_probe,
             size_t max_matches,
             std::vector<std::pair<int64_t, int64_t>>* out) const;

  /// Rows indexed, a repeated subset row once per occurrence (rows with a
  /// null key cell are excluded at build time).
  size_t size() const { return size_; }

  const std::vector<int>& columns() const { return cols_; }

  /// Approximate heap footprint of the index structures (dense offsets/rows,
  /// flat-table slots and entries, per-column plans) — the unit of the
  /// byte-accounted LRU bound on AptIndexCache. Excludes the borrowed build
  /// table.
  size_t ApproxBytes() const;

 private:
  enum class Layout {
    kEmpty,    ///< no indexable rows (all-null key column / empty dictionary)
    kDense,    ///< counting-sort groups over the packed key range
    kTyped,    ///< flat table on SplitMix64(packed key), injective
    kGeneric,  ///< flat table on HashRowKey, probe verifies equality
  };

  /// Per-column codec of the typed packed key (INT64 offsets / build codes).
  struct ColPlan {
    bool dict = false;
    int64_t min = 0;   ///< int columns: build-side key range
    int64_t max = -1;
    uint64_t range = 0;  ///< per-column key-space size; 0 means 2^64
    uint64_t stride = 1;
  };

  /// Resolved probe-side access for one key column of one Probe() call.
  struct ProbeColView;

  /// Emits left row ids directly through ProbeEach.
  friend std::vector<std::pair<int64_t, int64_t>> HashEquiJoin(
      const Table& left, const std::vector<int64_t>& left_rows,
      const Table& right, const std::vector<int64_t>& right_rows,
      const JoinKeySpec& keys, const TableStats* right_stats);

  /// Probe() with each match handed to `emit(probe index, build row)`;
  /// `out` is read only for the max_matches check.
  template <typename EmitFn>
  bool ProbeEach(const std::vector<ProbeKeyCol>& probe, size_t n_probe,
                 size_t max_matches,
                 const std::vector<std::pair<int64_t, int64_t>>& out,
                 EmitFn emit) const;

  const Table* build_;
  std::vector<int> cols_;
  Layout layout_ = Layout::kEmpty;
  std::vector<ColPlan> plans_;
  uint64_t total_range_ = 0;  ///< dense layout: packed key space size
  std::vector<int32_t> dense_offsets_;
  std::vector<int64_t> dense_rows_;
  FlatMultiMap flat_;
  size_t size_ = 0;
};

}  // namespace cajade

#endif  // CAJADE_EXEC_JOIN_H_
