#include "src/mining/apt.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"

namespace cajade {

namespace {

/// PT column for (relation hint, attribute); any relation with the attribute
/// when the hint is empty.
Result<int> ResolvePtColumn(const ProvenanceTable& pt, const std::string& relation,
                            const std::string& attribute) {
  if (!relation.empty()) {
    int c = pt.FindColumn(relation, attribute);
    if (c >= 0) return c;
    return Status::BindError(Format("PT has no column for %s.%s",
                                    relation.c_str(), attribute.c_str()));
  }
  for (const auto& rel : pt.relations) {
    int c = pt.FindColumn(rel, attribute);
    if (c >= 0) return c;
  }
  return Status::BindError(Format("PT has no column for attribute '%s'",
                                  attribute.c_str()));
}

}  // namespace

bool ShardedApt::PtRowIsIdentity() const {
  if (shards.size() != 1) return false;
  const std::vector<int32_t>& pt_row = shards.front().pt_row;
  if (pt_row.size() != pt_rows_used.size()) return false;
  for (size_t r = 0; r < pt_row.size(); ++r) {
    if (pt_row[r] != static_cast<int32_t>(r)) return false;
  }
  return true;
}

void LocateAptRows(const ShardedApt& apt, const std::vector<size_t>& rows,
                   std::vector<size_t>* shard, std::vector<size_t>* local) {
  // offsets[si] = first global row of shard si.
  std::vector<size_t> offsets(apt.shards.size() + 1, 0);
  for (size_t si = 0; si < apt.shards.size(); ++si) {
    offsets[si + 1] = offsets[si] + apt.shards[si].num_rows();
  }
  shard->resize(rows.size());
  local->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto next = std::upper_bound(offsets.begin(), offsets.end(), rows[i]);
    const size_t si = static_cast<size_t>(next - offsets.begin()) - 1;
    (*shard)[i] = si;
    (*local)[i] = rows[i] - offsets[si];
  }
}

// Hashes the PT's shape (schema, relations, group-by attributes), its cell
// contents (ContentFingerprint — one cached columnar pass per PT, so two
// queries whose provenance merely agrees on shape and row count do not
// alias each other's states), and the selected row ids — everything the
// initial state and the mining-exclusion flags of later states depend on.
// It does not say which side of the question each selected row is on; the
// result cache's key (the question itself) does. The raw
// row/column/selection counts ride along next to the hash, leaving the
// 64-bit folds as the only lossy component: a false hit then needs two
// same-shape, same-selection PTs whose contents collide in 64 bits among
// the cache's LRU-bounded live keys (hundreds, not 2^32 — vanishing by
// construction, unlike an unbounded accumulation). The value is
// process-local: ContentFingerprint hashes strings with std::hash, so it
// may differ between builds, and it only keys in-memory caches. It covers
// only the PT; the context relations a state joined in are versioned by
// the key pieces of its tree steps.
std::string AptPtFingerprint(const ProvenanceTable& pt,
                             const std::vector<int64_t>& pt_rows) {
  uint64_t h = kRowKeyHashSeed;
  auto mix = [&h](uint64_t v) { h = CombineKeyHash(h, SplitMix64(v)); };
  auto mix_str = [&](const std::string& s) {
    mix(std::hash<std::string>{}(s));
  };
  mix(pt.ContentFingerprint());
  mix(pt.table.num_rows());
  mix(pt.table.num_columns());
  for (const auto& c : pt.table.schema().columns()) {
    mix_str(c.name);
    mix(static_cast<uint64_t>(c.type));
    mix(c.mining_excluded ? 1 : 0);
  }
  for (const auto& rel : pt.relations) mix_str(rel);
  for (int c : pt.group_by_pt_cols) mix(static_cast<uint64_t>(c));
  for (const auto& [rel, attr] : pt.group_by_source_attrs) {
    mix_str(rel);
    mix_str(attr);
  }
  mix(pt_rows.size());
  for (int64_t r : pt_rows) mix(static_cast<uint64_t>(r));
  return Format("pt%016llx:%zux%zu:%zu", static_cast<unsigned long long>(h),
                pt.table.num_rows(), pt.table.num_columns(), pt_rows.size());
}

namespace {

Status NoSuchAttribute(const std::string& relation, const std::string& attr) {
  return Status::BindError(Format("relation '%s' has no attribute '%s'",
                                  relation.c_str(), attr.c_str()));
}

Status RowLimitExceeded(size_t row_limit, const JoinGraph& graph) {
  return Status::OutOfRange(
      Format("APT exceeds row limit %zu for join graph %s", row_limit,
             graph.Describe().c_str()));
}

/// One materialization step with its names resolved, shared by every shard.
struct BoundStep {
  bool cycle = false;
  /// A cycle step keeps the state rows whose `left_cols` equal their
  /// `right_cols`. A tree step probes `base`'s index on `right_cols` with
  /// the state's `left_cols`.
  std::vector<int> left_cols;
  std::vector<int> right_cols;
  /// Tree steps: the context relation joined in.
  TablePtr base;
  /// The state's schema after the step.
  Schema schema;
  /// Prefix-cache key piece: '|' and the step's AptStepSignature, then, on
  /// a tree step, the joined relation's content version, so a write to a
  /// context relation re-keys every state built from it.
  std::string key_piece;
};

/// A join graph bound against one PT and database.
struct BoundGraph {
  /// The PT's columns: the schema of every shard's initial state.
  Schema base_schema;
  /// The plan's steps before the first one whose names do not resolve.
  std::vector<BoundStep> steps;
  /// What the call returns unless a bound step trips the row limit: that
  /// first step's error, the disconnected-graph error, or OK.
  Status tail;

  /// The schema after every bound step.
  const Schema& schema() const {
    return steps.empty() ? base_schema : steps.back().schema;
  }
};

/// Resolves every name the graph's steps use, once for all shards, in the
/// order the APT oracle (tests/oracles) meets them: a tree step's relation,
/// its condition pairs, then its output columns. The oracle adds those
/// columns only after its probe, the one ordering difference (see
/// MaterializeAptSharded in apt.h).
Result<BoundGraph> BindGraph(const ProvenanceTable& pt, const JoinGraph& graph,
                             const SchemaGraph& schema_graph,
                             const Database& db) {
  ASSIGN_OR_RETURN(const AptPlan plan, PlanAptSteps(graph, schema_graph));
  BoundGraph bound;
  for (const auto& c : pt.table.schema().columns()) {
    RETURN_NOT_OK(
        bound.base_schema.AddColumn(c.name, c.type, c.mining_excluded));
  }
  // Each joined context node's relation and the state column of its first
  // attribute.
  std::vector<TablePtr> node_table(graph.nodes().size());
  std::vector<int> node_offset(graph.nodes().size(), -1);
  auto resolve = [&](int node, const std::string& pt_relation,
                     const std::string& attr) -> Result<int> {
    if (graph.nodes()[node].is_pt) {
      return ResolvePtColumn(pt, pt_relation, attr);
    }
    const int c = node_table[node]->schema().FindColumn(attr);
    if (c < 0) return NoSuchAttribute(graph.nodes()[node].relation, attr);
    return node_offset[node] + c;
  };
  auto bind = [&](const AptStep& step, const Schema& in) -> Result<BoundStep> {
    const JoinGraphEdge& e = graph.edges()[step.edge];
    const JoinConditionDef& cond =
        schema_graph.edges()[e.schema_edge].conditions[e.condition];
    BoundStep out;
    out.cycle = step.cycle;
    out.schema = in;
    out.key_piece = "|" + AptStepSignature(graph, schema_graph, step);
    if (step.cycle) {
      for (const auto& p : cond.pairs) {
        ASSIGN_OR_RETURN(int ca, resolve(e.node_a, e.pt_relation,
                                         e.a_plays_left ? p.left : p.right));
        ASSIGN_OR_RETURN(int cb, resolve(e.node_b, e.pt_relation,
                                         e.a_plays_left ? p.right : p.left));
        out.left_cols.push_back(ca);
        out.right_cols.push_back(cb);
      }
      return out;
    }
    const JoinGraphNode& nn = graph.nodes()[step.new_node];
    ASSIGN_OR_RETURN(out.base, db.GetTable(nn.relation));
    const bool in_is_left = (step.in_node == e.node_a) == e.a_plays_left;
    for (const auto& p : cond.pairs) {
      ASSIGN_OR_RETURN(int ci, resolve(step.in_node, e.pt_relation,
                                       in_is_left ? p.left : p.right));
      const std::string& new_attr = in_is_left ? p.right : p.left;
      const int cn = out.base->schema().FindColumn(new_attr);
      if (cn < 0) return NoSuchAttribute(nn.relation, new_attr);
      out.left_cols.push_back(ci);
      out.right_cols.push_back(cn);
    }
    for (const auto& c : out.base->schema().columns()) {
      // A context copy of a query relation re-exposes the group-by
      // attributes (e.g. game.season when grouping by season); the paper's
      // Section 2.5 exclusion applies to them as well.
      bool excluded = c.mining_excluded;
      for (const auto& [rel, attr] : pt.group_by_source_attrs) {
        if (rel == nn.relation && attr == c.name) excluded = true;
      }
      RETURN_NOT_OK(
          out.schema.AddColumn(nn.label + "." + c.name, c.type, excluded));
    }
    out.key_piece += "@v" + std::to_string(out.base->content_version());
    node_table[step.new_node] = out.base;
    node_offset[step.new_node] = static_cast<int>(in.num_columns());
    return out;
  };
  for (const AptStep& step : plan.steps) {
    Result<BoundStep> next = bind(step, bound.schema());
    if (!next.ok()) {
      bound.tail = next.status();
      return bound;
    }
    bound.steps.push_back(std::move(next).MoveValue());
  }
  for (size_t v = 0; v < graph.nodes().size(); ++v) {
    if (!plan.joined[v]) {
      bound.tail = Status::InvalidArgument(
          "join graph is disconnected: node '" + graph.nodes()[v].label +
          "' unreachable from PT");
      break;
    }
  }
  return bound;
}

/// `left`'s rows `lrows` beside, for a tree step, `right`'s rows `rrows`.
Table GatherTable(const Schema& schema, const Table& left,
                  const std::vector<int64_t>& lrows, const Table* right,
                  const std::vector<int64_t>& rrows) {
  std::vector<Column> cols;
  cols.reserve(schema.num_columns());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    cols.push_back(left.column(c).Gather(lrows));
  }
  if (right != nullptr) {
    for (size_t c = 0; c < right->num_columns(); ++c) {
      cols.push_back(right->column(c).Gather(rrows));
    }
  }
  return Table("APT", schema, std::move(cols), lrows.size());
}

/// The initial state of the shard covering positions [begin, end) of
/// pt_rows: the PT restricted to those rows. pt_row entries are GLOBAL
/// positions, so states propagate global coverage positions through every
/// step and per-shard coverage sets OR directly into one PT-wide bitmap.
AptJoinState BuildBaseState(const ProvenanceTable& pt, const Schema& schema,
                            const std::vector<int64_t>& pt_rows, size_t begin,
                            size_t end) {
  const std::vector<int64_t> rows(pt_rows.begin() + begin,
                                  pt_rows.begin() + end);
  AptJoinState state;
  state.table = GatherTable(schema, pt.table, rows, nullptr, {});
  state.pt_row.resize(rows.size());
  std::iota(state.pt_row.begin(), state.pt_row.end(),
            static_cast<int32_t>(begin));
  return state;
}

/// Applies one bound step to `in`. A tree step probes the cached typed
/// index on its relation with the state's rows, preserving state row order;
/// a cycle step keeps the rows whose two sides agree. Null join keys never
/// match in either case — the guard is explicit here (and in every
/// JoinBuildIndex layout), not delegated to hash or equality internals.
/// The index is looked up here, inside the step's build, so a prefix-cache
/// hit never touches the index cache.
Result<AptJoinState> ApplyStep(const AptJoinState& in, const BoundStep& step,
                               const AptMaterializeOptions& options,
                               AptIndexCache* index_cache,
                               const JoinGraph& graph) {
  const Table& cur = in.table;
  std::vector<int64_t> lrows, rrows;
  if (step.cycle) {
    for (size_t r = 0; r < cur.num_rows(); ++r) {
      const auto row = static_cast<int64_t>(r);
      // NULL never survives a cycle edge — including NULL = NULL — matching
      // the executor's equi-join contract.
      if (HasNullKey(cur, row, step.left_cols) ||
          HasNullKey(cur, row, step.right_cols)) {
        continue;
      }
      if (RowKeysEqual(cur, row, step.left_cols, cur, row, step.right_cols)) {
        lrows.push_back(row);
      }
    }
  } else {
    AptIndexCache::IndexPtr index =
        index_cache->Get(*step.base, step.right_cols, options.stats);
    std::vector<int64_t> probe_rows(cur.num_rows());
    std::iota(probe_rows.begin(), probe_rows.end(), 0);
    std::vector<ProbeKeyCol> probe;
    probe.reserve(step.left_cols.size());
    for (int c : step.left_cols) probe.push_back({&cur.column(c), &probe_rows});
    std::vector<std::pair<int64_t, int64_t>> matches;
    matches.reserve(cur.num_rows());
    if (!index->Probe(probe, cur.num_rows(), options.row_limit, &matches)) {
      return RowLimitExceeded(options.row_limit, graph);
    }
    lrows.reserve(matches.size());
    rrows.reserve(matches.size());
    for (const auto& [l, r] : matches) {
      lrows.push_back(l);
      rrows.push_back(r);
    }
  }
  AptJoinState next;
  next.table = GatherTable(step.schema, cur, lrows, step.base.get(), rrows);
  next.pt_row.reserve(lrows.size());
  for (int64_t l : lrows) next.pt_row.push_back(in.pt_row[l]);
  return next;
}

/// `make`'s state, shared through the prefix cache under `key` when there
/// is a cache.
Result<AptPrefixCache::StatePtr> HoldState(AptPrefixCache* cache,
                                           const std::string& key,
                                           const AptPrefixCache::BuildFn& make) {
  if (cache != nullptr) return cache->GetOrBuild(key, make);
  ASSIGN_OR_RETURN(AptJoinState state, make());
  return std::make_shared<const AptJoinState>(std::move(state));
}

}  // namespace

AptIndexCache::IndexPtr AptIndexCache::Get(const Table& base,
                                           const std::vector<int>& cols,
                                           StatsCatalog* stats) {
  // The content version in the key is the invalidation mechanism: mutating
  // (or replacing) a base table re-keys its indexes, and the stale entries
  // age out through the LRU bound.
  std::string key = base.name();
  key += '@';
  key += std::to_string(base.content_version());
  for (int c : cols) {
    key += '|';
    key += std::to_string(c);
  }
  // An index build reports failure only by exception, which GetOrBuild
  // rethrows, so the result is always a value.
  return GetOrBuild(key, [&]() -> Result<Index> {
           const StatsCatalog::StatsPtr ranges =
               stats != nullptr ? stats->GetRanges(base) : nullptr;
           return Index(base, cols, ranges.get());
         }).ValueOrDie();
}

// ---- AptPrefixCache ---------------------------------------------------------

size_t AptPrefixCache::ApproxStateBytes(const AptJoinState& state) {
  return state.pt_row.size() * sizeof(int32_t) + state.table.ApproxBytes();
}

// ---- MaterializeAptSharded --------------------------------------------------

Result<ShardedApt> MaterializeAptSharded(const ProvenanceTable& pt,
                                         const std::vector<int64_t>& pt_rows,
                                         const JoinGraph& graph,
                                         const SchemaGraph& schema_graph,
                                         const Database& db,
                                         const AptMaterializeOptions& options,
                                         size_t shard_rows) {
  ASSIGN_OR_RETURN(const BoundGraph bound,
                   BindGraph(pt, graph, schema_graph, db));
  std::optional<AptIndexCache> local_cache;
  AptIndexCache* index_cache = options.index_cache != nullptr
                                   ? options.index_cache
                                   : &local_cache.emplace();
  AptPrefixCache* prefix_cache = options.prefix_cache;

  const size_t n = pt_rows.size();
  // 0 or >= |pt_rows| collapses to one full-range shard; an empty
  // selection still gets one (empty) shard so schema_table() exists.
  const size_t per =
      (shard_rows == 0 || shard_rows >= n) ? (n > 0 ? n : 1) : shard_rows;
  const size_t num_shards = n > 0 ? (n + per - 1) / per : 1;

  std::string base_key;
  if (prefix_cache != nullptr) {
    base_key = options.pt_fingerprint.empty() ? AptPtFingerprint(pt, pt_rows)
                                              : options.pt_fingerprint;
  }

  // Cross-shard step-output totals: the sum over shards of a tree step's
  // rows equals the full step's output, so the limit check composes.
  std::vector<std::atomic<size_t>> step_total(bound.steps.size());
  for (auto& t : step_total) t.store(0, std::memory_order_relaxed);
  // The one failure a shard can meet: every name was bound before any
  // shard ran, so a step fails only when the row limit trips.
  std::atomic<bool> tripped{false};
  auto trip = [&] { tripped.store(true, std::memory_order_relaxed); };
  // Records state i (a shard's rows after i bound steps) and, after a tree
  // step, adds its rows to that step's total; false once the total passes
  // the limit. A cached state counts like a fresh one, so the trip does
  // not depend on who built it under which limit.
  auto admit = [&](size_t i, const AptJoinState& state) {
    if (options.metrics != nullptr) {
      options.metrics->RecordStateBytes(
          AptPrefixCache::ApproxStateBytes(state));
    }
    if (i == 0 || bound.steps[i - 1].cycle) return true;
    const size_t rows = state.table.num_rows();
    const size_t total =
        step_total[i - 1].fetch_add(rows, std::memory_order_relaxed) + rows;
    return options.row_limit == 0 || total <= options.row_limit;
  };

  std::vector<AptShard> shards(num_shards);
  std::vector<std::exception_ptr> shard_exception(num_shards);
  auto run_shard = [&](size_t s) {
    try {
      const size_t b = s * per;
      const size_t e = std::min(n, b + per);
      std::string key;
      if (prefix_cache != nullptr) {
        // Partial-range states must never alias full-range states (or
        // other shard sizes'). The full-range shard uses the plain key, so
        // every caller materializing all rows warms the same entries.
        key = base_key;
        if (!(b == 0 && e == n)) key += Format("|shard:%zu-%zu", b, e);
      }
      auto build = [&](size_t i,
                       const AptJoinState* in) -> Result<AptJoinState> {
        if (i == 0) return BuildBaseState(pt, bound.base_schema, pt_rows, b, e);
        return ApplyStep(*in, bound.steps[i - 1], options, index_cache, graph);
      };
      // The base state and every step's output but the last are held
      // shared, through the prefix cache when there is one. Steps never
      // mutate their input, so a cached state feeds the next step like a
      // fresh one.
      const size_t last = bound.steps.size();
      AptPrefixCache::StatePtr cur;
      for (size_t i = 0; i == 0 || i < last; ++i) {
        if (tripped.load(std::memory_order_relaxed)) return;
        if (i > 0 && prefix_cache != nullptr) {
          key += bound.steps[i - 1].key_piece;
        }
        const AptJoinState* in = cur.get();
        auto next = HoldState(prefix_cache, key, [&] { return build(i, in); });
        if (!next.ok()) return trip();
        cur = std::move(next).MoveValue();
        if (!admit(i, *cur)) return trip();
      }
      // The final state is this shard's alone: the last step's output moves
      // in, and an edgeless graph's base state, which the cache may share,
      // is copied.
      Result<AptJoinState> out =
          last == 0 ? Result<AptJoinState>(*cur) : build(last, cur.get());
      if (!out.ok() || (last > 0 && !admit(last, *out))) return trip();
      AptShard& shard = shards[s];
      shard.table = std::move(out->table);
      shard.pt_row = std::move(out->pt_row);
      shard.pt_begin = b;
      shard.pt_end = e;
    } catch (...) {
      // WorkerPool tasks must not throw: the exception is rethrown below.
      shard_exception[s] = std::current_exception();
      trip();
    }
  };

  if (options.pool != nullptr && num_shards > 1) {
    options.pool->ParallelFor(num_shards, run_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }

  for (const std::exception_ptr& ex : shard_exception) {
    if (ex) std::rethrow_exception(ex);
  }
  // The oracle stops at the first step whose output passes the limit or
  // whose names do not resolve. Only steps before the tail ran here, so a
  // trip came first.
  if (tripped.load(std::memory_order_relaxed)) {
    return RowLimitExceeded(options.row_limit, graph);
  }
  RETURN_NOT_OK(bound.tail);

  ShardedApt apt;
  apt.pt_rows_used = pt_rows;
  apt.num_pt_columns = pt.table.schema().num_columns();
  apt.shards = std::move(shards);
  for (const AptShard& s : apt.shards) apt.total_rows += s.table.num_rows();
  // Pattern-eligible columns: all except the query's group-by attributes
  // and columns flagged mining_excluded (dates, surrogate keys).
  const Schema& schema = bound.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const int col = static_cast<int>(c);
    if (schema.column(c).mining_excluded ||
        std::find(pt.group_by_pt_cols.begin(), pt.group_by_pt_cols.end(),
                  col) != pt.group_by_pt_cols.end()) {
      continue;
    }
    apt.pattern_cols.push_back(col);
  }
  if (options.metrics != nullptr) {
    options.metrics->shards.fetch_add(num_shards, std::memory_order_relaxed);
  }
  return apt;
}

}  // namespace cajade
