#include "tests/oracles/oracles.h"

#include <algorithm>
#include <unordered_map>

#include "src/exec/spj_steps.h"

namespace cajade {

namespace {

/// Hash of a multi-column key of base-table cells addressed via a tuple.
struct TupleKeyHasher {
  uint64_t operator()(const std::vector<Value>& key) const {
    uint64_t h = 0x9876;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

Result<SpjOutput> ReferenceExecuteSpj(const Database& db,
                                      const ParsedQuery& query) {
  SpjState st;
  RETURN_NOT_OK(PrepareSpj(&db, query, &st));

  // The seed's join loop: first textually-connected alias next, per-row
  // std::vector<Value> tuple keys into an unordered_multimap.
  std::vector<int> bound = {0};
  std::vector<std::vector<int64_t>> tuple_cols(1);
  tuple_cols[0] = st.selected[0];

  auto is_bound = [&](int a) {
    return std::find(bound.begin(), bound.end(), a) != bound.end();
  };
  auto bound_pos = [&](int a) {
    return static_cast<size_t>(std::find(bound.begin(), bound.end(), a) -
                               bound.begin());
  };

  while (bound.size() < st.n_aliases) {
    // Find an unbound alias connected to the bound set by equality conjuncts.
    int next = -1;
    std::vector<size_t> join_conjunct_ids;
    for (size_t a = 0; a < st.n_aliases && next < 0; ++a) {
      if (is_bound(static_cast<int>(a))) continue;
      join_conjunct_ids.clear();
      for (size_t i = 0; i < st.conjuncts.size(); ++i) {
        if (st.consumed[i]) continue;
        EquiCond ec;
        if (!AsEquiCond(*st.conjuncts[i], &ec)) continue;
        bool connects = (ec.alias_a == static_cast<int>(a) && is_bound(ec.alias_b)) ||
                        (ec.alias_b == static_cast<int>(a) && is_bound(ec.alias_a));
        if (connects) join_conjunct_ids.push_back(i);
      }
      if (!join_conjunct_ids.empty()) next = static_cast<int>(a);
    }

    if (next < 0) {
      // Cross product with the smallest remaining relation.
      size_t best = SmallestUnbound(st, bound);
      size_t n_tuples = tuple_cols.empty() ? 0 : tuple_cols[0].size();
      std::vector<std::vector<int64_t>> out(bound.size() + 1);
      for (size_t t = 0; t < n_tuples; ++t) {
        for (int64_t r : st.selected[best]) {
          for (size_t k = 0; k < bound.size(); ++k) out[k].push_back(tuple_cols[k][t]);
          out.back().push_back(r);
        }
      }
      bound.push_back(static_cast<int>(best));
      tuple_cols = std::move(out);
      continue;
    }

    // Hash join on all connecting equality conjuncts.
    std::vector<std::pair<int, int>> bound_keys;  // (bound alias, col)
    std::vector<int> next_keys;
    for (size_t i : join_conjunct_ids) {
      EquiCond ec;
      AsEquiCond(*st.conjuncts[i], &ec);
      if (ec.alias_a == next) {
        next_keys.push_back(ec.col_a);
        bound_keys.emplace_back(ec.alias_b, ec.col_b);
      } else {
        next_keys.push_back(ec.col_b);
        bound_keys.emplace_back(ec.alias_a, ec.col_a);
      }
      st.consumed[i] = true;
    }

    const Table& nt = *st.tables[next];
    std::unordered_multimap<std::vector<Value>, int64_t, TupleKeyHasher> build;
    build.reserve(st.selected[next].size() * 2);
    for (int64_t r : st.selected[next]) {
      std::vector<Value> key;
      key.reserve(next_keys.size());
      bool has_null = false;
      for (int c : next_keys) {
        Value v = nt.GetValue(r, c);
        if (v.is_null()) {
          has_null = true;
          break;
        }
        key.push_back(std::move(v));
      }
      if (!has_null) build.emplace(std::move(key), r);
    }

    size_t n_tuples = tuple_cols.empty() ? 0 : tuple_cols[0].size();
    std::vector<std::vector<int64_t>> out(bound.size() + 1);
    std::vector<Value> key(bound_keys.size());
    for (size_t t = 0; t < n_tuples; ++t) {
      bool has_null = false;
      for (size_t k = 0; k < bound_keys.size(); ++k) {
        auto [ba, bc] = bound_keys[k];
        key[k] = st.tables[ba]->GetValue(tuple_cols[bound_pos(ba)][t], bc);
        if (key[k].is_null()) {
          has_null = true;
          break;
        }
      }
      if (has_null) continue;
      auto range = build.equal_range(key);
      for (auto it = range.first; it != range.second; ++it) {
        for (size_t k = 0; k < bound.size(); ++k) out[k].push_back(tuple_cols[k][t]);
        out.back().push_back(it->second);
      }
    }
    bound.push_back(next);
    tuple_cols = std::move(out);
  }

  return FinishSpj(query, st, bound, std::move(tuple_cols));
}

}  // namespace cajade
