#include "src/mining/apt.h"

#include <algorithm>
#include <numeric>
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
// may differ between builds, and it only keys in-memory caches. Like the
// caches themselves, this assumes an immutable database.
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

/// The initial state of the shard covering positions [begin, end) of
/// pt_rows: the PT restricted to those rows. pt_row entries are GLOBAL
/// positions, so states propagate global coverage positions through every
/// step and per-shard coverage sets OR directly into one PT-wide bitmap.
Result<AptJoinState> BuildBaseState(const ProvenanceTable& pt,
                                    const std::vector<int64_t>& pt_rows,
                                    size_t begin, size_t end) {
  const std::vector<int64_t> rows(pt_rows.begin() + begin,
                                  pt_rows.begin() + end);
  AptJoinState state;
  Schema cur_schema;
  for (const auto& c : pt.table.schema().columns()) {
    RETURN_NOT_OK(cur_schema.AddColumn(c.name, c.type, c.mining_excluded));
  }
  std::vector<Column> cur_cols;
  cur_cols.reserve(pt.table.num_columns());
  for (size_t c = 0; c < pt.table.num_columns(); ++c) {
    cur_cols.push_back(pt.table.column(c).Gather(rows));
  }
  state.table = Table("APT", std::move(cur_schema), std::move(cur_cols),
                      rows.size());
  state.pt_row.resize(rows.size());
  std::iota(state.pt_row.begin(), state.pt_row.end(),
            static_cast<int32_t>(begin));
  return state;
}

/// Everything one materialization step needs besides its input state.
/// `node_offset` holds the first column of every already-joined context
/// node, maintained by the main loop as steps are applied or skipped via
/// the prefix cache.
struct StepContext {
  const ProvenanceTable* pt;
  const JoinGraph* graph;
  const SchemaGraph* schema_graph;
  const Database* db;
  AptIndexCache* index_cache;
  StatsCatalog* stats;  // nullable
  size_t row_limit;
  const std::vector<int>* node_offset;
};

Result<int> ResolveSide(const StepContext& ctx, int node,
                        const std::string& pt_rel, const std::string& attr) {
  if (ctx.graph->nodes()[node].is_pt) {
    return ResolvePtColumn(*ctx.pt, pt_rel, attr);
  }
  ASSIGN_OR_RETURN(TablePtr base,
                   ctx.db->GetTable(ctx.graph->nodes()[node].relation));
  int c = base->schema().FindColumn(attr);
  if (c < 0) {
    return Status::BindError(
        Format("relation '%s' has no attribute '%s'",
               ctx.graph->nodes()[node].relation.c_str(), attr.c_str()));
  }
  return (*ctx.node_offset)[node] + c;
}

/// Applies one materialization step to `in`, producing the next state.
/// Tree edges run through the typed kernel index (cached across graphs);
/// cycle edges filter rows whose two sides agree. Null join keys never
/// match in either case — the guard is explicit here (and in every
/// JoinBuildIndex layout), not delegated to hash or equality internals.
Result<AptJoinState> ApplyAptStep(const AptJoinState& in, const AptStep& step,
                                  const StepContext& ctx) {
  const JoinGraphEdge& e = ctx.graph->edges()[step.edge];
  const SchemaEdge& se = ctx.schema_graph->edges()[e.schema_edge];
  const JoinConditionDef& cond = se.conditions[e.condition];
  const Table& cur = in.table;

  if (step.cycle) {
    // Cycle-closing edge: filter rows where both sides agree.
    std::vector<int> cols_a, cols_b;
    for (const auto& p : cond.pairs) {
      const std::string& attr_a = e.a_plays_left ? p.left : p.right;
      const std::string& attr_b = e.a_plays_left ? p.right : p.left;
      ASSIGN_OR_RETURN(int ca, ResolveSide(ctx, e.node_a, e.pt_relation, attr_a));
      ASSIGN_OR_RETURN(int cb, ResolveSide(ctx, e.node_b, e.pt_relation, attr_b));
      cols_a.push_back(ca);
      cols_b.push_back(cb);
    }
    std::vector<int64_t> keep;
    for (size_t r = 0; r < cur.num_rows(); ++r) {
      const auto row = static_cast<int64_t>(r);
      // NULL never survives a cycle edge — including NULL = NULL — matching
      // the executor's equi-join contract.
      if (HasNullKey(cur, row, cols_a) || HasNullKey(cur, row, cols_b)) {
        continue;
      }
      if (RowKeysEqual(cur, row, cols_a, cur, row, cols_b)) {
        keep.push_back(row);
      }
    }
    AptJoinState next;
    std::vector<Column> next_cols;
    next_cols.reserve(cur.num_columns());
    Schema next_schema;
    for (size_t c = 0; c < cur.num_columns(); ++c) {
      RETURN_NOT_OK(next_schema.AddColumn(cur.schema().column(c).name,
                                          cur.schema().column(c).type,
                                          cur.schema().column(c).mining_excluded));
      next_cols.push_back(cur.column(c).Gather(keep));
    }
    next.pt_row.reserve(keep.size());
    for (int64_t r : keep) next.pt_row.push_back(in.pt_row[r]);
    next.table = Table("APT", std::move(next_schema), std::move(next_cols),
                       keep.size());
    return next;
  }

  // Tree edge: join in the new relation.
  const JoinGraphNode& nn = ctx.graph->nodes()[step.new_node];
  ASSIGN_OR_RETURN(TablePtr base, ctx.db->GetTable(nn.relation));

  const bool in_is_left = (step.in_node == e.node_a) == e.a_plays_left;
  JoinKeySpec keys;
  for (const auto& p : cond.pairs) {
    const std::string& in_attr = in_is_left ? p.left : p.right;
    const std::string& new_attr = in_is_left ? p.right : p.left;
    ASSIGN_OR_RETURN(int ci, ResolveSide(ctx, step.in_node, e.pt_relation, in_attr));
    int cn = base->schema().FindColumn(new_attr);
    if (cn < 0) {
      return Status::BindError(Format("relation '%s' has no attribute '%s'",
                                      nn.relation.c_str(), new_attr.c_str()));
    }
    keys.left_cols.push_back(ci);
    keys.right_cols.push_back(cn);
  }

  // Probe the cached typed index on the context relation with the current
  // state's rows, preserving state row order.
  AptIndexCache::IndexPtr index =
      ctx.index_cache->Get(*base, keys.right_cols, ctx.stats);

  std::vector<int64_t> probe_rows(cur.num_rows());
  std::iota(probe_rows.begin(), probe_rows.end(), 0);
  std::vector<ProbeKeyCol> probe;
  probe.reserve(keys.left_cols.size());
  for (int ci : keys.left_cols) probe.push_back({&cur.column(ci), &probe_rows});

  std::vector<std::pair<int64_t, int64_t>> matches;
  matches.reserve(cur.num_rows());
  if (!index->Probe(probe, cur.num_rows(), ctx.row_limit, &matches)) {
    return Status::OutOfRange(
        Format("APT exceeds row limit %zu for join graph %s", ctx.row_limit,
               ctx.graph->Describe().c_str()));
  }

  Schema next_schema;
  for (const auto& c : cur.schema().columns()) {
    RETURN_NOT_OK(next_schema.AddColumn(c.name, c.type, c.mining_excluded));
  }
  for (const auto& c : base->schema().columns()) {
    // A context copy of a query relation re-exposes the group-by
    // attributes (e.g. game.season when grouping by season); the paper's
    // Section 2.5 exclusion applies to them as well.
    bool excluded = c.mining_excluded;
    for (const auto& [rel, attr] : ctx.pt->group_by_source_attrs) {
      if (rel == nn.relation && attr == c.name) excluded = true;
    }
    RETURN_NOT_OK(next_schema.AddColumn(nn.label + "." + c.name, c.type,
                                        excluded));
  }

  std::vector<int64_t> lrows, rrows;
  lrows.reserve(matches.size());
  rrows.reserve(matches.size());
  for (const auto& [l, r] : matches) {
    lrows.push_back(l);
    rrows.push_back(r);
  }
  AptJoinState next;
  std::vector<Column> next_cols;
  next_cols.reserve(next_schema.num_columns());
  for (size_t c = 0; c < cur.num_columns(); ++c) {
    next_cols.push_back(cur.column(c).Gather(lrows));
  }
  for (size_t c = 0; c < base->num_columns(); ++c) {
    next_cols.push_back(base->column(c).Gather(rrows));
  }
  next.pt_row.reserve(matches.size());
  for (int64_t l : lrows) next.pt_row.push_back(in.pt_row[l]);
  next.table = Table("APT", std::move(next_schema), std::move(next_cols),
                     matches.size());
  return next;
}

/// Scalar per-edge index for the reference path: flat multimap of canonical
/// row-key hashes over the non-null-key rows, in base-row order (the shape
/// AptIndexCache stored before the typed kernel layer).
FlatMultiMap BuildReferenceIndex(const Table& base, const std::vector<int>& cols) {
  FlatMultiMap index;
  index.Reserve(base.num_rows());
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (HasNullKey(base, static_cast<int64_t>(r), cols)) continue;
    index.Insert(HashRowKey(base, static_cast<int64_t>(r), cols),
                 static_cast<int64_t>(r));
  }
  index.Finalize();
  return index;
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

namespace {

/// Re-runs a failed multi-shard materialization serially, STEP-major and
/// uncached, to surface the error a serial run over all rows reports
/// (ReferenceMaterializeApt's): shard-major schedules can pass a later step
/// on one shard before an earlier step's cross-shard row total has tripped
/// the limit, making the first-recorded error (OutOfRange vs. a bind error)
/// schedule-dependent. Step-major order restores the serial precedence — a
/// step's resolution errors fire before its probes, and the row limit trips
/// when the step's output summed across shards (== the full step output, in
/// row order) first exceeds the cap. Only runs on the error path, so its
/// serial cost is irrelevant.
Status DeterministicShardedError(const ProvenanceTable& pt,
                                 const std::vector<int64_t>& pt_rows,
                                 const JoinGraph& graph,
                                 const SchemaGraph& schema_graph,
                                 const Database& db,
                                 const AptMaterializeOptions& options,
                                 const AptPlan& plan, size_t per,
                                 size_t num_shards) {
  AptIndexCache local_cache;
  AptIndexCache* index_cache =
      options.index_cache != nullptr ? options.index_cache : &local_cache;
  const size_t n = pt_rows.size();

  std::vector<AptJoinState> states(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t b = s * per;
    const size_t e = std::min(n, b + per);
    auto built = BuildBaseState(pt, pt_rows, b, e);
    if (!built.ok()) return built.status();
    states[s] = std::move(built).MoveValue();
  }

  std::vector<int> node_offset(graph.nodes().size(), -1);
  StepContext ctx{&pt,         &graph,        &schema_graph,     &db,
                  index_cache, options.stats, options.row_limit, &node_offset};
  size_t running_cols = pt.table.num_columns();
  for (const AptStep& step : plan.steps) {
    size_t total = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      // Per-shard probes keep the full cap (a single shard over the limit
      // implies the total is, and the message embeds the original limit);
      // the cumulative check below catches totals no single shard trips.
      auto next = ApplyAptStep(states[s], step, ctx);
      if (!next.ok()) return next.status();
      states[s] = std::move(next).MoveValue();
      if (!step.cycle) {
        total += states[s].table.num_rows();
        if (ctx.row_limit > 0 && total > ctx.row_limit) {
          return Status::OutOfRange(
              Format("APT exceeds row limit %zu for join graph %s",
                     ctx.row_limit, graph.Describe().c_str()));
        }
      }
    }
    if (!step.cycle) {
      // Column offsets are shard-independent (identical schemas), so one
      // shared node_offset serves every shard.
      node_offset[step.new_node] = static_cast<int>(running_cols);
      running_cols = states[0].table.num_columns();
    }
  }
  return Status::OK();
}

}  // namespace

Result<ShardedApt> MaterializeAptSharded(const ProvenanceTable& pt,
                                         const std::vector<int64_t>& pt_rows,
                                         const JoinGraph& graph,
                                         const SchemaGraph& schema_graph,
                                         const Database& db,
                                         const AptMaterializeOptions& options,
                                         size_t shard_rows) {
  AptIndexCache local_cache;
  AptIndexCache* index_cache =
      options.index_cache != nullptr ? options.index_cache : &local_cache;
  AptPrefixCache* prefix_cache = options.prefix_cache;

  ASSIGN_OR_RETURN(AptPlan plan, PlanAptSteps(graph, schema_graph));

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

  std::vector<AptShard> shards(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());
  std::vector<std::exception_ptr> shard_exception(num_shards);
  // Cross-shard step-output totals: sum over shards of a tree step's rows
  // equals the full step's output, so the limit check composes.
  std::vector<std::atomic<size_t>> step_total(plan.steps.size());
  for (auto& t : step_total) t.store(0, std::memory_order_relaxed);
  std::atomic<bool> abort{false};

  auto run_shard = [&](size_t s) {
    try {
      if (abort.load(std::memory_order_relaxed)) return;
      const size_t b = s * per;
      const size_t e = std::min(n, b + per);

      std::vector<int> node_offset(graph.nodes().size(), -1);
      StepContext ctx{&pt,         &graph,        &schema_graph,     &db,
                      index_cache, options.stats, options.row_limit,
                      &node_offset};

      auto fail = [&](Status st) {
        shard_status[s] = std::move(st);
        abort.store(true, std::memory_order_relaxed);
      };

      // Current state: shared when it came from the prefix cache, local
      // when built fresh. Steps never mutate their input, so a shared state
      // feeds the next step exactly like a local one.
      AptPrefixCache::StatePtr shared_cur;
      AptJoinState local_cur;
      bool cur_is_local = false;
      const AptJoinState* cur = nullptr;

      std::string prefix_key;
      if (prefix_cache != nullptr) {
        prefix_key = base_key;
        if (!(b == 0 && e == n)) {
          // Partial-range states must never alias full-range states (or
          // other shard sizes'). The full-range shard uses the plain key,
          // so every caller materializing all rows warms the same entries.
          prefix_key += Format("|shard:%zu-%zu", b, e);
        }
        auto got = prefix_cache->GetOrBuild(
            prefix_key, [&] { return BuildBaseState(pt, pt_rows, b, e); });
        if (!got.ok()) return fail(got.status());
        shared_cur = std::move(got).MoveValue();
        cur = shared_cur.get();
      } else {
        auto built = BuildBaseState(pt, pt_rows, b, e);
        if (!built.ok()) return fail(built.status());
        local_cur = std::move(built).MoveValue();
        cur_is_local = true;
        cur = &local_cur;
      }
      if (options.metrics != nullptr) {
        options.metrics->RecordStateBytes(
            AptPrefixCache::ApproxStateBytes(*cur));
      }

      size_t running_cols = pt.table.num_columns();
      for (size_t si = 0; si < plan.steps.size(); ++si) {
        if (abort.load(std::memory_order_relaxed)) return;
        const AptStep& step = plan.steps[si];
        const bool last = si + 1 == plan.steps.size();
        if (prefix_cache != nullptr && !last) {
          prefix_key += '|';
          prefix_key += AptStepSignature(graph, schema_graph, step);
          const AptJoinState* prev = cur;
          auto got = prefix_cache->GetOrBuild(
              prefix_key, [&]() -> Result<AptJoinState> {
                return ApplyAptStep(*prev, step, ctx);
              });
          if (!got.ok()) return fail(got.status());
          shared_cur = std::move(got).MoveValue();
          cur = shared_cur.get();
          cur_is_local = false;
        } else {
          auto next = ApplyAptStep(*cur, step, ctx);
          if (!next.ok()) return fail(next.status());
          local_cur = std::move(next).MoveValue();
          cur_is_local = true;
          cur = &local_cur;
        }
        if (options.metrics != nullptr) {
          options.metrics->RecordStateBytes(
              AptPrefixCache::ApproxStateBytes(*cur));
        }
        if (!step.cycle) {
          // Covers both fresh builds and cache hits: a cached state may
          // have been built under a larger (or no) cap, and the abort must
          // not depend on who built it. Shard rows count toward the total
          // either way.
          const size_t rows = cur->table.num_rows();
          const size_t total =
              step_total[si].fetch_add(rows, std::memory_order_relaxed) +
              rows;
          if (ctx.row_limit > 0 && total > ctx.row_limit) {
            return fail(Status::OutOfRange(
                Format("APT exceeds row limit %zu for join graph %s",
                       ctx.row_limit, graph.Describe().c_str())));
          }
          node_offset[step.new_node] = static_cast<int>(running_cols);
          running_cols = cur->table.num_columns();
        }
      }

      AptShard& out = shards[s];
      out.pt_begin = b;
      out.pt_end = e;
      if (cur_is_local) {
        out.table = std::move(local_cur.table);
        out.pt_row = std::move(local_cur.pt_row);
      } else {
        // Final state shared with the cache (the edgeless PT-only graph):
        // deep-copy out so the shard owns its table.
        out.table = cur->table;
        out.pt_row = cur->pt_row;
      }
    } catch (...) {
      // WorkerPool tasks must not throw; recorded failures are re-derived
      // (or rethrown) deterministically below.
      shard_exception[s] = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  };

  if (options.pool != nullptr && num_shards > 1) {
    options.pool->ParallelFor(num_shards, run_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }

  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_status[s].ok() && !shard_exception[s]) continue;
    // A single shard ran serially, so its first error already is the
    // serial one; only several shards need the step-major re-run.
    if (num_shards > 1) {
      Status st = DeterministicShardedError(
          pt, pt_rows, graph, schema_graph, db, options, plan, per, num_shards);
      if (!st.ok()) return st;
    }
    // A lone shard's record, or the backstop for failures the re-run does
    // not reproduce (transient exceptions): the lowest failed shard's.
    if (shard_exception[s]) std::rethrow_exception(shard_exception[s]);
    return shard_status[s];
  }

  for (size_t v = 0; v < graph.nodes().size(); ++v) {
    if (!plan.joined[v]) {
      return Status::InvalidArgument(
          "join graph is disconnected: node '" + graph.nodes()[v].label +
          "' unreachable from PT");
    }
  }

  ShardedApt apt;
  apt.pt_rows_used = pt_rows;
  apt.num_pt_columns = pt.table.schema().num_columns();
  apt.shards = std::move(shards);
  for (const AptShard& s : apt.shards) apt.total_rows += s.table.num_rows();

  // Pattern-eligible columns from shard 0's (identical-across-shards)
  // schema: all except the query's group-by attributes and columns flagged
  // mining_excluded (dates, surrogate keys).
  const Table& schema_table = apt.shards.front().table;
  for (size_t c = 0; c < schema_table.num_columns(); ++c) {
    if (schema_table.schema().column(c).mining_excluded) continue;
    bool excluded = false;
    for (int g : pt.group_by_pt_cols) {
      if (static_cast<size_t>(g) == c) {
        excluded = true;
        break;
      }
    }
    if (!excluded) apt.pattern_cols.push_back(static_cast<int>(c));
  }
  if (options.metrics != nullptr) {
    options.metrics->shards.fetch_add(num_shards, std::memory_order_relaxed);
  }
  return apt;
}

// ---- ReferenceMaterializeApt ------------------------------------------------
// The scalar implementation, kept verbatim as the differential oracle and
// bench baseline: per-edge flat indexes of canonical row-key hashes, scalar
// HashRowKey/RowKeysEqual probes, breadth-first edge order.

namespace {

/// The oracle's row copy: one type dispatch and one append per cell.
/// Production copies go through Column::Gather.
Column CopyColumnSubset(const Column& src, const std::vector<int64_t>& rows) {
  Column dst(src.type());
  dst.Reserve(rows.size());
  if (src.type() == DataType::kString) dst.AdoptDictionary(src);
  for (int64_t r : rows) {
    if (src.IsNull(r)) {
      dst.AppendNull();
      continue;
    }
    switch (src.type()) {
      case DataType::kInt64:
        dst.AppendInt(src.GetInt(r));
        break;
      case DataType::kDouble:
        dst.AppendDouble(src.GetDouble(r));
        break;
      case DataType::kString:
        dst.AppendCode(src.GetCode(r));
        break;
      default:
        dst.AppendNull();
    }
  }
  return dst;
}

}  // namespace

Result<ShardedApt> ReferenceMaterializeApt(const ProvenanceTable& pt,
                                           const std::vector<int64_t>& pt_rows,
                                           const JoinGraph& graph,
                                           const SchemaGraph& schema_graph,
                                           const Database& db,
                                           size_t row_limit) {
  // The planner's validation only: a malformed graph fails as it does in
  // MaterializeAptSharded instead of indexing out of range below.
  RETURN_NOT_OK(PlanAptSteps(graph, schema_graph).status());
  ShardedApt apt;
  apt.pt_rows_used = pt_rows;
  apt.num_pt_columns = pt.table.schema().num_columns();

  // Start: PT restricted to the requested rows.
  Schema cur_schema;
  for (const auto& c : pt.table.schema().columns()) {
    RETURN_NOT_OK(cur_schema.AddColumn(c.name, c.type, c.mining_excluded));
  }
  std::vector<Column> cur_cols;
  cur_cols.reserve(pt.table.num_columns());
  for (size_t c = 0; c < pt.table.num_columns(); ++c) {
    cur_cols.push_back(CopyColumnSubset(pt.table.column(c), pt_rows));
  }
  Table cur("APT", std::move(cur_schema), std::move(cur_cols), pt_rows.size());
  std::vector<int32_t> cur_pt(pt_rows.size());
  std::iota(cur_pt.begin(), cur_pt.end(), 0);

  // Node state: column offset of each context node once joined.
  std::vector<int> node_offset(graph.nodes().size(), -1);
  std::vector<bool> joined(graph.nodes().size(), false);
  joined[0] = true;
  std::vector<bool> edge_done(graph.edges().size(), false);

  auto resolve_side = [&](int node, const std::string& pt_rel,
                          const std::string& attr) -> Result<int> {
    if (graph.nodes()[node].is_pt) {
      return ResolvePtColumn(pt, pt_rel, attr);
    }
    ASSIGN_OR_RETURN(TablePtr base, db.GetTable(graph.nodes()[node].relation));
    int c = base->schema().FindColumn(attr);
    if (c < 0) {
      return Status::BindError(
          Format("relation '%s' has no attribute '%s'",
                 graph.nodes()[node].relation.c_str(), attr.c_str()));
    }
    return node_offset[node] + c;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t ei = 0; ei < graph.edges().size(); ++ei) {
      if (edge_done[ei]) continue;
      const JoinGraphEdge& e = graph.edges()[ei];
      bool a_in = joined[e.node_a];
      bool b_in = joined[e.node_b];
      if (!a_in && !b_in) continue;
      const SchemaEdge& se = schema_graph.edges()[e.schema_edge];
      const JoinConditionDef& cond = se.conditions[e.condition];
      edge_done[ei] = true;
      progress = true;

      if (a_in && b_in) {
        // Cycle-closing edge: filter rows where both sides agree.
        std::vector<int> cols_a, cols_b;
        for (const auto& p : cond.pairs) {
          const std::string& attr_a = e.a_plays_left ? p.left : p.right;
          const std::string& attr_b = e.a_plays_left ? p.right : p.left;
          ASSIGN_OR_RETURN(int ca, resolve_side(e.node_a, e.pt_relation, attr_a));
          ASSIGN_OR_RETURN(int cb, resolve_side(e.node_b, e.pt_relation, attr_b));
          cols_a.push_back(ca);
          cols_b.push_back(cb);
        }
        std::vector<int64_t> keep;
        for (size_t r = 0; r < cur.num_rows(); ++r) {
          if (RowKeysEqual(cur, static_cast<int64_t>(r), cols_a, cur,
                           static_cast<int64_t>(r), cols_b)) {
            keep.push_back(static_cast<int64_t>(r));
          }
        }
        std::vector<Column> next_cols;
        next_cols.reserve(cur.num_columns());
        Schema next_schema;
        for (size_t c = 0; c < cur.num_columns(); ++c) {
          RETURN_NOT_OK(next_schema.AddColumn(cur.schema().column(c).name,
                                              cur.schema().column(c).type,
                                              cur.schema().column(c).mining_excluded));
          next_cols.push_back(CopyColumnSubset(cur.column(c), keep));
        }
        std::vector<int32_t> next_pt;
        next_pt.reserve(keep.size());
        for (int64_t r : keep) next_pt.push_back(cur_pt[r]);
        cur = Table("APT", std::move(next_schema), std::move(next_cols),
                    keep.size());
        cur_pt = std::move(next_pt);
        continue;
      }

      // Tree edge: join in the new relation.
      int in_node = a_in ? e.node_a : e.node_b;
      int new_node = a_in ? e.node_b : e.node_a;
      const JoinGraphNode& nn = graph.nodes()[new_node];
      ASSIGN_OR_RETURN(TablePtr base, db.GetTable(nn.relation));

      bool in_is_left = (in_node == e.node_a) == e.a_plays_left;
      JoinKeySpec keys;
      for (const auto& p : cond.pairs) {
        const std::string& in_attr = in_is_left ? p.left : p.right;
        const std::string& new_attr = in_is_left ? p.right : p.left;
        ASSIGN_OR_RETURN(int ci, resolve_side(in_node, e.pt_relation, in_attr));
        int cn = base->schema().FindColumn(new_attr);
        if (cn < 0) {
          return Status::BindError(Format("relation '%s' has no attribute '%s'",
                                          nn.relation.c_str(), new_attr.c_str()));
        }
        keys.left_cols.push_back(ci);
        keys.right_cols.push_back(cn);
      }

      // Probe a per-edge index on the context relation with the current
      // APT rows, preserving the APT row order.
      const FlatMultiMap index = BuildReferenceIndex(*base, keys.right_cols);
      std::vector<std::pair<int64_t, int64_t>> matches;
      for (size_t l = 0; l < cur.num_rows(); ++l) {
        uint64_t h = HashRowKey(cur, static_cast<int64_t>(l), keys.left_cols);
        index.ForEach(h, [&](int64_t r) {
          if (RowKeysEqual(cur, static_cast<int64_t>(l), keys.left_cols, *base,
                           r, keys.right_cols)) {
            matches.emplace_back(static_cast<int64_t>(l), r);
          }
        });
        if (row_limit > 0 && matches.size() > row_limit) {
          return Status::OutOfRange(
              Format("APT exceeds row limit %zu for join graph %s", row_limit,
                     graph.Describe().c_str()));
        }
      }

      Schema next_schema;
      for (const auto& c : cur.schema().columns()) {
        RETURN_NOT_OK(next_schema.AddColumn(c.name, c.type, c.mining_excluded));
      }
      node_offset[new_node] = static_cast<int>(cur.num_columns());
      for (const auto& c : base->schema().columns()) {
        // A context copy of a query relation re-exposes the group-by
        // attributes (e.g. game.season when grouping by season); the paper's
        // Section 2.5 exclusion applies to them as well.
        bool excluded = c.mining_excluded;
        for (const auto& [rel, attr] : pt.group_by_source_attrs) {
          if (rel == nn.relation && attr == c.name) excluded = true;
        }
        RETURN_NOT_OK(next_schema.AddColumn(nn.label + "." + c.name, c.type,
                                            excluded));
      }

      std::vector<int64_t> lrows, rrows;
      lrows.reserve(matches.size());
      rrows.reserve(matches.size());
      for (const auto& [l, r] : matches) {
        lrows.push_back(l);
        rrows.push_back(r);
      }
      std::vector<Column> next_cols;
      next_cols.reserve(next_schema.num_columns());
      for (size_t c = 0; c < cur.num_columns(); ++c) {
        next_cols.push_back(CopyColumnSubset(cur.column(c), lrows));
      }
      for (size_t c = 0; c < base->num_columns(); ++c) {
        next_cols.push_back(CopyColumnSubset(base->column(c), rrows));
      }
      std::vector<int32_t> next_pt;
      next_pt.reserve(matches.size());
      for (int64_t l : lrows) next_pt.push_back(cur_pt[l]);
      cur = Table("APT", std::move(next_schema), std::move(next_cols),
                  matches.size());
      cur_pt = std::move(next_pt);
      joined[new_node] = true;
    }
  }

  for (size_t v = 0; v < graph.nodes().size(); ++v) {
    if (!joined[v]) {
      return Status::InvalidArgument(
          "join graph is disconnected: node '" + graph.nodes()[v].label +
          "' unreachable from PT");
    }
  }

  // Pattern-eligible columns: all except the query's group-by attributes and
  // columns flagged mining_excluded (dates, surrogate keys).
  for (size_t c = 0; c < cur.num_columns(); ++c) {
    if (cur.schema().column(c).mining_excluded) continue;
    bool excluded = false;
    for (int g : pt.group_by_pt_cols) {
      if (static_cast<size_t>(g) == c) {
        excluded = true;
        break;
      }
    }
    if (!excluded) apt.pattern_cols.push_back(static_cast<int>(c));
  }

  apt.total_rows = cur.num_rows();
  AptShard shard;
  shard.table = std::move(cur);
  shard.pt_row = std::move(cur_pt);
  shard.pt_end = pt_rows.size();
  apt.shards.push_back(std::move(shard));
  return apt;
}

}  // namespace cajade
