#include "src/exec/executor.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "src/common/string_util.h"
#include "src/exec/evaluator.h"
#include "src/exec/flat_hash.h"
#include "src/exec/join.h"
#include "src/exec/spj_steps.h"

namespace cajade {

namespace {

/// Aliases referenced by a bound expression.
void CollectAliases(const Expr& e, std::set<int>* out) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      out->insert(e.bound_alias);
      break;
    case ExprKind::kBinary:
      CollectAliases(*e.left, out);
      CollectAliases(*e.right, out);
      break;
    case ExprKind::kAggregate:
      if (e.arg != nullptr) CollectAliases(*e.arg, out);
      break;
    default:
      break;
  }
}

}  // namespace

bool AsEquiCond(const Expr& e, EquiCond* out) {
  if (e.kind != ExprKind::kBinary || e.op != BinaryOp::kEq) return false;
  if (e.left->kind != ExprKind::kColumnRef || e.right->kind != ExprKind::kColumnRef) {
    return false;
  }
  if (e.left->bound_alias == e.right->bound_alias) return false;
  out->alias_a = e.left->bound_alias;
  out->col_a = e.left->bound_index;
  out->alias_b = e.right->bound_alias;
  out->col_b = e.right->bound_index;
  return true;
}

Status PrepareSpj(const Database* db, const ParsedQuery& query, SpjState* st) {
  st->n_aliases = query.from.size();
  if (st->n_aliases == 0) {
    return Status::InvalidArgument("query has no FROM clause");
  }

  // Resolve base tables and build the global binding scope.
  st->tables.resize(st->n_aliases);
  BindScope scope;
  for (size_t i = 0; i < st->n_aliases; ++i) {
    ASSIGN_OR_RETURN(st->tables[i], db->GetTable(query.from[i].table_name));
    const Schema& schema = st->tables[i]->schema();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      scope.AddColumn(query.from[i].alias, schema.column(c).name,
                      static_cast<int>(i), static_cast<int>(c));
    }
  }

  // Bind and classify WHERE conjuncts.
  SplitConjuncts(CloneExpr(query.where), &st->conjuncts);
  st->conjunct_aliases.resize(st->conjuncts.size());
  for (size_t i = 0; i < st->conjuncts.size(); ++i) {
    RETURN_NOT_OK(BindExpr(st->conjuncts[i].get(), scope));
    CollectAliases(*st->conjuncts[i], &st->conjunct_aliases[i]);
  }

  // Predicate pushdown: evaluate single-alias conjuncts on base tables.
  st->selected.resize(st->n_aliases);
  st->consumed.assign(st->conjuncts.size(), false);
  for (size_t a = 0; a < st->n_aliases; ++a) {
    std::vector<const Expr*> local;
    for (size_t i = 0; i < st->conjuncts.size(); ++i) {
      if (st->conjunct_aliases[i].size() == 1 &&
          *st->conjunct_aliases[i].begin() == static_cast<int>(a)) {
        local.push_back(st->conjuncts[i].get());
        st->consumed[i] = true;
      }
    }
    const Table& t = *st->tables[a];
    RowContext ctx;
    ctx.tables.assign(st->n_aliases, nullptr);
    ctx.rows.assign(st->n_aliases, 0);
    ctx.tables[a] = &t;
    st->selected[a].reserve(t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      ctx.rows[a] = r;
      bool pass = true;
      for (const Expr* e : local) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*e, ctx));
        if (!IsTruthy(v)) {
          pass = false;
          break;
        }
      }
      if (pass) st->selected[a].push_back(static_cast<int64_t>(r));
    }
  }
  return Status::OK();
}

/// Applies residual multi-alias conjuncts and materializes the working table
/// (columns named "<alias>.<column>") plus per-alias source rows: the source
/// rows come first, and each working column is one Column::Gather of its
/// base column by its alias's source rows.
Result<SpjOutput> FinishSpj(const ParsedQuery& query, const SpjState& st,
                            const std::vector<int>& bound,
                            std::vector<std::vector<int64_t>> tuple_cols) {
  auto bound_pos = [&](int a) {
    return static_cast<size_t>(std::find(bound.begin(), bound.end(), a) -
                               bound.begin());
  };

  // Residual conjuncts over multiple aliases.
  std::vector<const Expr*> residual;
  for (size_t i = 0; i < st.conjuncts.size(); ++i) {
    if (!st.consumed[i]) residual.push_back(st.conjuncts[i].get());
  }
  if (!residual.empty()) {
    size_t n_tuples = tuple_cols.empty() ? 0 : tuple_cols[0].size();
    std::vector<size_t> keep;
    keep.reserve(n_tuples);
    RowContext ctx;
    ctx.tables.resize(st.n_aliases);
    ctx.rows.resize(st.n_aliases);
    for (size_t a = 0; a < st.n_aliases; ++a) ctx.tables[a] = st.tables[a].get();
    for (size_t t = 0; t < n_tuples; ++t) {
      for (size_t k = 0; k < bound.size(); ++k) {
        ctx.rows[bound[k]] = static_cast<size_t>(tuple_cols[k][t]);
      }
      bool pass = true;
      for (const Expr* e : residual) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*e, ctx));
        if (!IsTruthy(v)) {
          pass = false;
          break;
        }
      }
      if (pass) keep.push_back(t);
    }
    for (std::vector<int64_t>& rows : tuple_cols) {
      for (size_t i = 0; i < keep.size(); ++i) rows[i] = rows[keep[i]];
      rows.resize(keep.size());
    }
  }

  SpjOutput out;
  out.source_rows.resize(st.n_aliases);
  for (size_t a = 0; a < st.n_aliases; ++a) {
    out.source_rows[a] = std::move(tuple_cols[bound_pos(static_cast<int>(a))]);
  }
  const size_t n_rows = out.source_rows.empty() ? 0 : out.source_rows[0].size();

  // Materialize the working table, columns named "<alias>.<column>".
  Schema working_schema;
  std::vector<Column> columns;
  for (size_t a = 0; a < st.n_aliases; ++a) {
    out.aliases.push_back(query.from[a].alias);
    out.relations.push_back(query.from[a].table_name);
    const Table& src = *st.tables[a];
    for (size_t c = 0; c < src.num_columns(); ++c) {
      const ColumnDef& col = src.schema().column(c);
      RETURN_NOT_OK(working_schema.AddColumn(query.from[a].alias + "." + col.name,
                                             col.type));
      columns.push_back(src.column(c).Gather(out.source_rows[a]));
    }
  }
  out.table = Table("working", std::move(working_schema), std::move(columns),
                    n_rows);
  return out;
}

size_t SmallestUnbound(const SpjState& st,
                       const std::vector<int>& bound) {
  auto is_bound = [&](int a) {
    return std::find(bound.begin(), bound.end(), a) != bound.end();
  };
  size_t best = 0;
  size_t best_size = SIZE_MAX;
  for (size_t a = 0; a < st.n_aliases; ++a) {
    if (!is_bound(static_cast<int>(a)) && st.selected[a].size() < best_size) {
      best = a;
      best_size = st.selected[a].size();
    }
  }
  return best;
}

Result<SpjOutput> QueryExecutor::ExecuteSpj(const ParsedQuery& query) const {
  SpjState st;
  RETURN_NOT_OK(PrepareSpj(db_, query, &st));

  // Join loop. Tuples are stored column-major: tuple_cols[k][t] is the base
  // row id of bound alias k in tuple t. The probe side starts with the first
  // FROM alias (keeping the seed's output grouping by first-alias order);
  // each step binds one more alias as the build side of a typed hash join.
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
    // Greedy join ordering: among the unbound aliases connected to the bound
    // set by equality conjuncts, build the smallest side first. Ties break
    // toward the higher-distinct-count join key (lower expected fan-out),
    // then FROM-clause order. Cardinality is the post-pushdown row count;
    // ndv comes from the cached TableStats and is only computed when two
    // candidates actually tie, so simple queries never pay the
    // distinct-count scan.
    struct JoinCandidate {
      int alias;
      std::vector<size_t> ids;  ///< connecting conjunct indexes
    };
    std::vector<JoinCandidate> tied;  // all at the minimum selected size
    size_t best_size = SIZE_MAX;
    for (size_t a = 0; a < st.n_aliases; ++a) {
      if (is_bound(static_cast<int>(a))) continue;
      std::vector<size_t> ids;
      for (size_t i = 0; i < st.conjuncts.size(); ++i) {
        if (st.consumed[i]) continue;
        EquiCond ec;
        if (!AsEquiCond(*st.conjuncts[i], &ec)) continue;
        bool connects = (ec.alias_a == static_cast<int>(a) && is_bound(ec.alias_b)) ||
                        (ec.alias_b == static_cast<int>(a) && is_bound(ec.alias_a));
        if (connects) ids.push_back(i);
      }
      if (ids.empty()) continue;
      const size_t size = st.selected[a].size();
      if (size < best_size) {
        best_size = size;
        tied.clear();
      }
      if (size == best_size) {
        tied.push_back({static_cast<int>(a), std::move(ids)});
      }
    }
    int next = -1;
    std::vector<size_t> join_conjunct_ids;
    if (tied.size() == 1) {
      next = tied[0].alias;
      join_conjunct_ids = std::move(tied[0].ids);
    } else if (!tied.empty()) {
      size_t best_ndv = 0;
      for (auto& cand : tied) {
        size_t ndv = 1;
        if (best_size > 0) {
          const StatsCatalog::StatsPtr ts = stats_.Get(*st.tables[cand.alias]);
          for (size_t i : cand.ids) {
            EquiCond ec;
            AsEquiCond(*st.conjuncts[i], &ec);
            int col = ec.alias_a == cand.alias ? ec.col_a : ec.col_b;
            if (static_cast<size_t>(col) < ts->columns.size()) {
              ndv = std::max(ndv, ts->columns[col].ndv);
            }
          }
        }
        if (ndv > best_ndv) {
          next = cand.alias;
          join_conjunct_ids = std::move(cand.ids);
          best_ndv = ndv;
        }
      }
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

    // Key columns: build side on the next alias, probe side addressed
    // through the bound tuple columns (possibly spanning several aliases).
    std::vector<int> next_keys;
    std::vector<ProbeKeyCol> probe;
    for (size_t i : join_conjunct_ids) {
      EquiCond ec;
      AsEquiCond(*st.conjuncts[i], &ec);
      int probe_alias, probe_col;
      if (ec.alias_a == next) {
        next_keys.push_back(ec.col_a);
        probe_alias = ec.alias_b;
        probe_col = ec.col_b;
      } else {
        next_keys.push_back(ec.col_b);
        probe_alias = ec.alias_a;
        probe_col = ec.col_a;
      }
      probe.push_back({&st.tables[probe_alias]->column(probe_col),
                       &tuple_cols[bound_pos(probe_alias)]});
      st.consumed[i] = true;
    }

    // A per-call JoinBuildIndex over the pushdown survivors of `next`,
    // probed once: (tuple index, build row) matches in tuple order.
    const Table& nt = *st.tables[next];
    size_t n_tuples = tuple_cols.empty() ? 0 : tuple_cols[0].size();
    std::vector<std::pair<int64_t, int64_t>> matches;
    matches.reserve(n_tuples);
    const StatsCatalog::StatsPtr ranges = stats_.GetRanges(nt);
    JoinBuildIndex(nt, std::move(next_keys), ranges.get(), &st.selected[next])
        .Probe(probe, n_tuples, /*max_matches=*/0, &matches);

    std::vector<std::vector<int64_t>> out(bound.size() + 1);
    for (auto& col : out) col.reserve(matches.size());
    for (const auto& [t, r] : matches) {
      for (size_t k = 0; k < bound.size(); ++k) {
        out[k].push_back(tuple_cols[k][static_cast<size_t>(t)]);
      }
      out.back().push_back(r);
    }
    bound.push_back(next);
    tuple_cols = std::move(out);
  }

  return FinishSpj(query, st, bound, std::move(tuple_cols));
}

namespace {

/// Accumulator for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double dsum = 0.0;
  int64_t isum = 0;
  bool any_double = false;
  bool has_value = false;
  Value min_v;
  Value max_v;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_double()) {
      any_double = true;
      dsum += v.AsDouble();
    } else if (v.is_int()) {
      isum += v.AsInt();
      dsum += static_cast<double>(v.AsInt());
    }
    if (!has_value || v < min_v) min_v = v;
    if (!has_value || v > max_v) max_v = v;
    has_value = true;
  }

  Value Finish(AggFunc fn, int64_t group_size) const {
    switch (fn) {
      case AggFunc::kCount:
        return Value(group_size >= 0 ? group_size : count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return any_double ? Value(dsum) : Value(isum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value(dsum / static_cast<double>(count));
      case AggFunc::kMin:
        return has_value ? min_v : Value::Null();
      case AggFunc::kMax:
        return has_value ? max_v : Value::Null();
    }
    return Value::Null();
  }
};

/// Group-key hash of one cell. Unlike the join kernels' HashKeyCell, group
/// keys only ever compare cells of the SAME working-table column, so string
/// cells hash by dictionary code — no per-row string materialization.
inline uint64_t GroupCellHash(const Column& col, int64_t row) {
  if (col.IsNull(row)) return 0xdeadULL;
  switch (col.type()) {
    case DataType::kInt64:
      return SplitMix64(static_cast<uint64_t>(col.GetInt(row)));
    case DataType::kString:
      return SplitMix64(
          static_cast<uint64_t>(static_cast<uint32_t>(col.GetCode(row))));
    case DataType::kDouble: {
      // GroupCellsEqual treats every NaN as equal, so all NaN payloads must
      // hash alike (the canonical cell hash is per-bit-pattern).
      const double d = col.GetDouble(row);
      if (d != d) return 0xbadf00dULL;
      return HashKeyCell(col, row);
    }
    default:
      return HashKeyCell(col, row);
  }
}

/// Group-key equality of two rows of one column: SQL GROUP BY semantics, so
/// nulls form one group (unlike join keys, where null never matches) and
/// NaNs group together (matching Value::Compare, where NaN orders equal).
/// Both rows come from the same column, so string cells compare by
/// dictionary code and numerics by native type — no Value materialization.
inline bool GroupCellsEqual(const Column& col, int64_t a, int64_t b) {
  const bool an = col.IsNull(a);
  const bool bn = col.IsNull(b);
  if (an || bn) return an && bn;
  switch (col.type()) {
    case DataType::kInt64:
      return col.GetInt(a) == col.GetInt(b);
    case DataType::kDouble: {
      const double x = col.GetDouble(a);
      const double y = col.GetDouble(b);
      return x == y || (x != x && y != y);
    }
    case DataType::kString:
      return col.GetCode(a) == col.GetCode(b);
    default:
      return true;
  }
}

/// \brief Assigns group ids in first-seen row order.
///
/// Keys hash through the same canonical cell hashes as the join kernels into
/// a FlatMultiMap of candidate group ids; equality is verified against each
/// group's representative row (column-ref keys) or stored key values
/// (computed keys), so hash collisions cannot merge groups. Replaces the
/// seed's unordered_map<std::vector<Value>, ...> with its per-row key
/// allocations.
class GroupIndex {
 public:
  explicit GroupIndex(size_t expected_rows) { map_.Reserve(expected_rows); }

  /// Group id of `hash` where `equals(existing_gid)` confirms the match;
  /// assigns the next id when no candidate matches.
  template <typename EqFn>
  size_t GetOrAdd(uint64_t hash, EqFn&& equals) {
    int64_t gid = -1;
    map_.ForEach(hash, [&](int64_t g) {
      if (gid < 0 && equals(static_cast<size_t>(g))) gid = g;
    });
    if (gid < 0) {
      gid = static_cast<int64_t>(num_groups_++);
      map_.Insert(hash, gid);
    }
    return static_cast<size_t>(gid);
  }

  size_t num_groups() const { return num_groups_; }

 private:
  FlatMultiMap map_;
  size_t num_groups_ = 0;
};

}  // namespace

Result<QueryOutput> QueryExecutor::ExecuteWithProvenance(
    const ParsedQuery& query) const {
  ASSIGN_OR_RETURN(SpjOutput spj, ExecuteSpj(query));
  const Table& working = spj.table;
  BindScope scope = BindScope::ForTable(working);

  // Clone + bind select and group-by expressions against the working table.
  std::vector<SelectItem> select;
  select.reserve(query.select.size());
  for (const auto& item : query.select) {
    select.push_back({CloneExpr(item.expr), item.name});
    RETURN_NOT_OK(BindExpr(select.back().expr.get(), scope));
  }
  std::vector<ExprPtr> group_by;
  for (const auto& g : query.group_by) {
    group_by.push_back(CloneExpr(g));
    RETURN_NOT_OK(BindExpr(group_by.back().get(), scope));
  }

  bool has_agg = false;
  for (const auto& item : select) {
    if (item.expr->ContainsAggregate()) has_agg = true;
  }

  QueryOutput out;

  if (!has_agg && group_by.empty()) {
    // Plain projection; each output row's provenance is its working row.
    std::vector<std::vector<Value>> rows;
    RowContext ctx{{&working}, {0}};
    for (size_t r = 0; r < working.num_rows(); ++r) {
      ctx.rows[0] = r;
      std::vector<Value> row;
      for (const auto& item : select) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
      out.group_rows.push_back({static_cast<int64_t>(r)});
    }
    // Infer schema.
    Schema schema;
    for (size_t c = 0; c < select.size(); ++c) {
      DataType t = DataType::kInt64;
      for (const auto& row : rows) {
        if (!row[c].is_null()) {
          t = row[c].type();
          if (t == DataType::kDouble) break;
        }
      }
      RETURN_NOT_OK(schema.AddColumn(select[c].name, t));
    }
    Table result("result", std::move(schema));
    for (const auto& row : rows) RETURN_NOT_OK(result.AppendRow(row));
    out.result = std::move(result);
    out.spj = std::move(spj);
    return out;
  }

  // Partition rows by the group-by key, group ids in first-seen row order
  // (and therefore deterministic result-row order). Plain column-ref keys —
  // the common case — hash and compare directly on the working columns; only
  // computed keys (e.g. GROUP BY x + 1) evaluate per-row Values.
  std::vector<std::vector<int64_t>> group_rows;
  RowContext ctx{{&working}, {0}};
  bool all_column_refs = true;
  for (const auto& g : group_by) {
    if (g->kind != ExprKind::kColumnRef) all_column_refs = false;
  }
  if (all_column_refs) {
    std::vector<const Column*> gcols;
    gcols.reserve(group_by.size());
    for (const auto& g : group_by) gcols.push_back(&working.column(g->bound_index));
    GroupIndex index(working.num_rows());
    std::vector<int64_t> rep;  // first-seen representative row per group
    for (size_t r = 0; r < working.num_rows(); ++r) {
      uint64_t h = kRowKeyHashSeed;
      for (const Column* c : gcols) {
        h = CombineKeyHash(h, GroupCellHash(*c, static_cast<int64_t>(r)));
      }
      size_t gid = index.GetOrAdd(h, [&](size_t g) {
        for (const Column* c : gcols) {
          if (!GroupCellsEqual(*c, static_cast<int64_t>(r), rep[g])) return false;
        }
        return true;
      });
      if (gid == group_rows.size()) {
        group_rows.emplace_back();
        rep.push_back(static_cast<int64_t>(r));
      }
      group_rows[gid].push_back(static_cast<int64_t>(r));
    }
  } else {
    GroupIndex index(working.num_rows());
    std::vector<std::vector<Value>> group_keys;
    for (size_t r = 0; r < working.num_rows(); ++r) {
      ctx.rows[0] = r;
      std::vector<Value> key;
      key.reserve(group_by.size());
      for (const auto& g : group_by) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*g, ctx));
        key.push_back(std::move(v));
      }
      uint64_t h = kRowKeyHashSeed;
      for (const Value& v : key) h = CombineKeyHash(h, v.Hash());
      size_t gid = index.GetOrAdd(h, [&](size_t g) { return group_keys[g] == key; });
      if (gid == group_rows.size()) {
        group_rows.emplace_back();
        group_keys.push_back(std::move(key));
      }
      group_rows[gid].push_back(static_cast<int64_t>(r));
    }
  }
  if (group_by.empty() && group_rows.empty()) {
    // Aggregates without GROUP BY over an empty input: one empty group.
    group_rows.emplace_back();
  }

  // Collect aggregate nodes across select items.
  std::vector<Expr*> agg_nodes;
  for (auto& item : select) item.expr->CollectAggregates(&agg_nodes);

  // Evaluate each group.
  std::vector<std::vector<Value>> rows;
  rows.reserve(group_rows.size());
  for (const auto& members : group_rows) {
    std::unordered_map<const Expr*, Value> agg_values;
    for (Expr* agg : agg_nodes) {
      AggState state;
      if (agg->arg == nullptr) {
        // COUNT(*)
        agg_values.emplace(agg,
                           Value(static_cast<int64_t>(members.size())));
        continue;
      }
      for (int64_t r : members) {
        ctx.rows[0] = static_cast<size_t>(r);
        ASSIGN_OR_RETURN(Value v, EvalExpr(*agg->arg, ctx));
        state.Add(v);
      }
      agg_values.emplace(agg, state.Finish(agg->agg, -1));
    }
    ctx.rows[0] = members.empty() ? 0 : static_cast<size_t>(members.front());
    std::vector<Value> row;
    for (const auto& item : select) {
      ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx, &agg_values));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }

  // Infer the output schema (promote to double when any group yields one).
  Schema schema;
  for (size_t c = 0; c < select.size(); ++c) {
    DataType t = DataType::kInt64;
    bool seen = false;
    for (const auto& row : rows) {
      if (row[c].is_null()) continue;
      if (!seen) {
        t = row[c].type();
        seen = true;
      } else if (row[c].type() == DataType::kDouble && t == DataType::kInt64) {
        t = DataType::kDouble;
      }
    }
    RETURN_NOT_OK(schema.AddColumn(select[c].name, t));
  }
  Table result("result", std::move(schema));
  for (const auto& row : rows) RETURN_NOT_OK(result.AppendRow(row));

  // Identify which output columns are group-by columns.
  for (size_t c = 0; c < select.size(); ++c) {
    const Expr& e = *select[c].expr;
    if (e.kind != ExprKind::kColumnRef) continue;
    for (const auto& g : group_by) {
      if (g->bound_index == e.bound_index) {
        out.group_by_output_cols.push_back(static_cast<int>(c));
        break;
      }
    }
  }

  out.result = std::move(result);
  out.group_rows = std::move(group_rows);
  out.spj = std::move(spj);
  return out;
}

Result<Table> QueryExecutor::Execute(const ParsedQuery& query) const {
  ASSIGN_OR_RETURN(QueryOutput out, ExecuteWithProvenance(query));
  return std::move(out.result);
}

}  // namespace cajade
