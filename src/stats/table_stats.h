// Per-column statistics (row counts, distinct values, int64 ranges) and a
// caching catalog. The join-graph enumerator uses these to estimate APT
// materialization cost, mirroring the paper's use of the DBMS cost estimate
// to prune join graphs (Section 4, lambda_qcost); the join planner and the
// kernel index builds read the ranges and distinct counts.
//
// Ownership and thread-safety: the catalog's caches are OnceLruCaches
// (src/common/once_lru_cache.h), which own their entries, build each one
// once and are safe for concurrent use. Statistics are handed out as
// shared_ptr<const TableStats> snapshots that nothing writes after they are
// built, so a caller may hold one across its own work while other threads
// use the catalog.

#ifndef CAJADE_STATS_TABLE_STATS_H_
#define CAJADE_STATS_TABLE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/once_lru_cache.h"
#include "src/storage/table.h"

namespace cajade {

/// Statistics for one column.
struct ColumnStats {
  size_t ndv = 0;  ///< distinct non-null values (ComputeTableStats only)
  size_t null_count = 0;
  /// Exact non-null range of INT64 columns, which the join kernels size
  /// dense layouts and pack composite keys from. Valid only when
  /// has_int_range (INT64 column with at least one non-null).
  int64_t int_min = 0;
  int64_t int_max = -1;
  bool has_int_range = false;
};

/// Statistics for one table.
struct TableStats {
  size_t num_rows = 0;
  std::vector<ColumnStats> columns;
};

/// Range statistics: null counts (from Column::null_count) and the exact
/// int64 range of INT64 columns, one sequential pass per INT64 column with
/// no hashing. `ndv` fields stay 0.
TableStats ComputeTableRanges(const Table& table);

/// ComputeTableRanges plus the exact distinct count of every column.
TableStats ComputeTableStats(const Table& table);

/// \brief Cache of table statistics, one entry per table in each of three
/// caches: full statistics, range statistics, and combined distinct counts
/// (per table and column combination).
///
/// Entries are keyed by table name and tagged with Table::content_version(),
/// so a mutated (or replaced) table detaches its old entry and is recomputed
/// on next access instead of serving stale statistics. Every method is safe
/// to call concurrently; one catalog serves an Explainer's join planner,
/// join-graph enumeration and APT index builds.
class StatsCatalog {
 public:
  using StatsPtr = std::shared_ptr<const TableStats>;

  /// Full statistics (see ComputeTableStats).
  StatsPtr Get(const Table& table);

  /// Range statistics (see ComputeTableRanges): enough for the join
  /// kernels' layout selection, without the distinct-count pass.
  StatsPtr GetRanges(const Table& table);

  /// Exact distinct count of the multi-column combination `cols`, at least 1.
  /// Correlated columns (e.g. the year/month/day/home parts of a game key)
  /// make the product-of-ndv estimate useless for join fan-out; the exact
  /// count is one cheap cached pass.
  size_t CombinedNdv(const Table& table, const std::vector<int>& cols);

  /// Column-name convenience overload; unknown names are skipped.
  size_t CombinedNdvByName(const Table& table,
                           const std::vector<std::string>& cols);

 private:
  static size_t StatsBytes(const TableStats& stats) {
    return sizeof(stats) + stats.columns.size() * sizeof(ColumnStats);
  }
  static size_t NdvBytes(const size_t&) { return sizeof(size_t); }

  // Unbounded: each table has one entry per cache (per column combination
  // for combined_ndv_), and a version bump replaces rather than adds one.
  OnceLruCache<TableStats> full_{SIZE_MAX, &StatsBytes};
  OnceLruCache<TableStats> ranges_{SIZE_MAX, &StatsBytes};
  OnceLruCache<size_t> combined_ndv_{SIZE_MAX, &NdvBytes};
};

}  // namespace cajade

#endif  // CAJADE_STATS_TABLE_STATS_H_
