// Hand-built APTs for the mining and baseline tests: a table wrapped as a
// one-shard ShardedApt, and a one-shard APT re-split into PT-position
// ranges, for checking that a consumer's result does not depend on the
// sharding.

#ifndef CAJADE_TESTS_APT_TEST_UTIL_H_
#define CAJADE_TESTS_APT_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mining/apt.h"

namespace cajade {

/// Wraps `table` as a one-shard APT over PT positions [0, num_pts): row r
/// extends position pt_row[r], and pt_rows_used is the identity.
inline ShardedApt OneShardApt(Table table, std::vector<int32_t> pt_row,
                              size_t num_pts, std::vector<int> pattern_cols) {
  ShardedApt apt;
  for (size_t p = 0; p < num_pts; ++p) {
    apt.pt_rows_used.push_back(static_cast<int64_t>(p));
  }
  apt.pattern_cols = std::move(pattern_cols);
  apt.total_rows = table.num_rows();
  AptShard shard;
  shard.table = std::move(table);
  shard.pt_row = std::move(pt_row);
  shard.pt_end = num_pts;
  apt.shards.push_back(std::move(shard));
  return apt;
}

/// Splits a one-shard APT into shards of `shard_pts` PT positions each.
/// Shard tables adopt the source dictionaries so codes stay comparable
/// across shards — the invariant MaterializeAptSharded provides. The
/// source's rows must be in PT-position order, so concatenating the shards
/// reproduces them.
inline ShardedApt SplitApt(const ShardedApt& apt, size_t shard_pts) {
  const Table& src_table = apt.shards.front().table;
  const std::vector<int32_t>& src_pt_row = apt.shards.front().pt_row;
  ShardedApt sa;
  sa.pt_rows_used = apt.pt_rows_used;
  sa.num_pt_columns = apt.num_pt_columns;
  sa.pattern_cols = apt.pattern_cols;
  size_t n = apt.pt_rows_used.size();
  for (size_t b = 0; b < n; b += shard_pts) {
    size_t e = std::min(n, b + shard_pts);
    AptShard shard;
    shard.pt_begin = b;
    shard.pt_end = e;
    std::vector<Column> cols;
    for (size_t c = 0; c < src_table.num_columns(); ++c) {
      const Column& src = src_table.column(c);
      Column dst(src.type());
      if (src.type() == DataType::kString) dst.AdoptDictionary(src);
      cols.push_back(std::move(dst));
    }
    size_t rows = 0;
    for (size_t r = 0; r < src_table.num_rows(); ++r) {
      size_t p = static_cast<size_t>(src_pt_row[r]);
      if (p < b || p >= e) continue;
      for (size_t c = 0; c < src_table.num_columns(); ++c) {
        const Column& src = src_table.column(c);
        if (src.IsNull(r)) {
          cols[c].AppendNull();
        } else if (src.type() == DataType::kString) {
          cols[c].AppendCode(src.GetCode(r));
        } else if (src.type() == DataType::kInt64) {
          cols[c].AppendInt(src.GetInt(r));
        } else {
          cols[c].AppendDouble(src.GetDouble(r));
        }
      }
      shard.pt_row.push_back(src_pt_row[r]);
      ++rows;
    }
    shard.table =
        Table(src_table.name(), src_table.schema(), std::move(cols), rows);
    sa.total_rows += rows;
    sa.shards.push_back(std::move(shard));
  }
  return sa;
}

}  // namespace cajade

#endif  // CAJADE_TESTS_APT_TEST_UTIL_H_
