#include "src/stats/table_stats.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/exec/join.h"

namespace cajade {

TableStats ComputeTableRanges(const Table& table) {
  TableStats stats;
  stats.num_rows = table.num_rows();
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnStats& cs = stats.columns[c];
    cs.null_count = col.null_count();
    if (col.type() != DataType::kInt64) continue;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) continue;
      const int64_t v = col.GetInt(r);
      if (!cs.has_int_range || v < cs.int_min) cs.int_min = v;
      if (!cs.has_int_range || v > cs.int_max) cs.int_max = v;
      cs.has_int_range = true;
    }
  }
  return stats;
}

TableStats ComputeTableStats(const Table& table) {
  TableStats stats = ComputeTableRanges(table);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.type() == DataType::kString) {
      // Dictionary size bounds distinct count; count used codes exactly.
      std::unordered_set<int32_t> codes;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (!col.IsNull(r)) codes.insert(col.GetCode(r));
      }
      stats.columns[c].ndv = codes.size();
      continue;
    }
    std::unordered_set<int64_t> seen;  // bit patterns of the numeric value
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col.IsNull(r)) continue;
      const double v = col.GetNumeric(r);
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      seen.insert(bits);
    }
    stats.columns[c].ndv = seen.size();
  }
  return stats;
}

namespace {

/// `cache`'s snapshot of `compute(table)` at the table's current version.
StatsCatalog::StatsPtr GetStats(OnceLruCache<TableStats>* cache,
                                const Table& table,
                                TableStats (*compute)(const Table&)) {
  // The builds never fail (an exception would propagate), so the result is
  // always a value.
  return cache
      ->GetOrBuild(table.name(), std::to_string(table.content_version()),
                   [&]() -> Result<TableStats> { return compute(table); })
      .ValueOrDie();
}

}  // namespace

StatsCatalog::StatsPtr StatsCatalog::Get(const Table& table) {
  return GetStats(&full_, table, &ComputeTableStats);
}

StatsCatalog::StatsPtr StatsCatalog::GetRanges(const Table& table) {
  return GetStats(&ranges_, table, &ComputeTableRanges);
}

size_t StatsCatalog::CombinedNdv(const Table& table,
                                 const std::vector<int>& cols) {
  std::string key = table.name();
  for (int c : cols) {
    key += '|';
    key += std::to_string(c);
  }
  auto count = [&]() -> Result<size_t> {
    std::unordered_set<uint64_t> seen;
    seen.reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      seen.insert(HashRowKey(table, static_cast<int64_t>(r), cols));
    }
    return std::max<size_t>(seen.size(), 1);
  };
  return *combined_ndv_
              .GetOrBuild(key, std::to_string(table.content_version()), count)
              .ValueOrDie();
}

size_t StatsCatalog::CombinedNdvByName(const Table& table,
                                       const std::vector<std::string>& cols) {
  std::vector<int> idx;
  for (const auto& name : cols) {
    int c = table.schema().FindColumn(name);
    if (c >= 0) idx.push_back(c);
  }
  if (idx.empty()) return 1;
  return CombinedNdv(table, idx);
}

}  // namespace cajade
