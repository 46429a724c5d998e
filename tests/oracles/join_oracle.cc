#include "tests/oracles/oracles.h"

#include <unordered_map>

namespace cajade {

std::vector<std::pair<int64_t, int64_t>> ReferenceHashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys) {
  std::vector<std::pair<int64_t, int64_t>> out;
  std::unordered_map<uint64_t, std::vector<int64_t>> build;
  build.reserve(right_rows.size() * 2);
  for (int64_t r : right_rows) {
    if (HasNullKey(right, r, keys.right_cols)) continue;
    build[HashRowKey(right, r, keys.right_cols)].push_back(r);
  }
  for (int64_t l : left_rows) {
    if (HasNullKey(left, l, keys.left_cols)) continue;
    auto it = build.find(HashRowKey(left, l, keys.left_cols));
    if (it == build.end()) continue;
    for (int64_t r : it->second) {
      if (RowKeysEqual(left, l, keys.left_cols, right, r, keys.right_cols)) {
        out.emplace_back(l, r);
      }
    }
  }
  return out;
}

}  // namespace cajade
