#include "src/core/explainer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/sql/parser.h"

namespace cajade {

std::string Explanation::ToString() const {
  return Format("[%s] %s  (F=%.2f, P=%.2f, R=%.2f, %lld/%lld vs %lld/%lld) %s",
                join_graph.c_str(), pattern.c_str(), fscore, precision, recall,
                static_cast<long long>(support_primary),
                static_cast<long long>(total_primary),
                static_cast<long long>(support_other),
                static_cast<long long>(total_other), primary_tuple.c_str());
}

Status Explainer::ResolveQuestion(const ProvenanceTable& pt,
                                  const UserQuestion& question,
                                  std::vector<int64_t>* pt_rows,
                                  PtClasses* classes, std::string* t1_desc,
                                  std::string* t2_desc) const {
  const Table& result = pt.result;
  ASSIGN_OR_RETURN(int row1, question.t1.FindRow(result));

  auto describe_row = [&](int r) {
    std::vector<std::string> parts;
    for (size_t c = 0; c < result.schema().num_columns(); ++c) {
      parts.push_back(result.schema().column(c).name + "=" +
                      result.GetValue(r, c).ToString());
    }
    return "(" + Join(parts, ", ") + ")";
  };
  *t1_desc = describe_row(row1);

  std::vector<int> rows2;
  if (question.is_single_point()) {
    for (size_t r = 0; r < result.num_rows(); ++r) {
      if (static_cast<int>(r) != row1) rows2.push_back(static_cast<int>(r));
    }
    *t2_desc = "(all other output tuples)";
  } else {
    ASSIGN_OR_RETURN(int row2, question.t2.FindRow(result));
    if (row2 == row1) {
      return Status::InvalidArgument("t1 and t2 select the same output tuple");
    }
    rows2.push_back(row2);
    *t2_desc = describe_row(row2);
  }

  // Gather PT rows of both sides; class 0 = t1, class 1 = t2.
  std::vector<std::pair<int64_t, int8_t>> tagged;
  for (int64_t r : pt.output_to_pt_rows[row1]) tagged.emplace_back(r, 0);
  for (int r2 : rows2) {
    for (int64_t r : pt.output_to_pt_rows[r2]) tagged.emplace_back(r, 1);
  }
  std::sort(tagged.begin(), tagged.end());
  pt_rows->clear();
  classes->clear();
  pt_rows->reserve(tagged.size());
  classes->reserve(tagged.size());
  for (const auto& [r, cls] : tagged) {
    pt_rows->push_back(r);
    classes->push_back(cls);
  }
  if (pt_rows->empty()) {
    return Status::InvalidArgument("user question selects empty provenance");
  }
  return Status::OK();
}

Result<ExplainResult> Explainer::Explain(const std::string& sql,
                                         const UserQuestion& question) const {
  ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(sql));
  return Explain(query, question);
}

Result<ExplainResult> Explainer::Explain(const ParsedQuery& query,
                                         const UserQuestion& question) const {
  ASSIGN_OR_RETURN(PreparedExplain prepared, Prepare(query, question));
  return ExplainPrepared(std::move(prepared));
}

Result<PreparedExplain> Explainer::Prepare(const std::string& sql,
                                           const UserQuestion& question) const {
  ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(sql));
  return Prepare(query, question);
}

Result<PreparedExplain> Explainer::Prepare(const ParsedQuery& query,
                                           const UserQuestion& question) const {
  PreparedExplain prepared;
  InputVersions& inputs = prepared.input_versions;
  for (const TableRef& ref : query.from) {
    auto named = [&](const auto& in) { return in.first == ref.table_name; };
    // A missing table fails the provenance below.
    Result<TablePtr> table = db_->GetTable(ref.table_name);
    if (table.ok() && std::none_of(inputs.begin(), inputs.end(), named)) {
      inputs.emplace_back(ref.table_name, (*table)->content_version());
    }
  }
  {
    ScopedStep step(&prepared.profile, "Compute Provenance");
    ASSIGN_OR_RETURN(prepared.pt, ComputeProvenance(executor_, query));
  }
  RETURN_NOT_OK(ResolveQuestion(prepared.pt, question, &prepared.pt_rows,
                                &prepared.classes, &prepared.t1_description,
                                &prepared.t2_description));
  // Computed unconditionally (not only when the prefix cache wants it): this
  // is what the serving layer validates cached results against.
  prepared.pt_fingerprint = AptPtFingerprint(prepared.pt, prepared.pt_rows);
  return prepared;
}

Result<ExplainResult> Explainer::ExplainPrepared(
    PreparedExplain prepared) const {
  ExplainResult out;
  Rng rng(config_.seed);

  const ProvenanceTable& pt = prepared.pt;
  const std::vector<int64_t>& pt_rows = prepared.pt_rows;
  const PtClasses& classes = prepared.classes;
  for (const auto& [step, seconds] : prepared.profile.totals()) {
    out.profile.Add(step, seconds);
  }
  out.t1_description = prepared.t1_description;
  out.t2_description = prepared.t2_description;

  // Enumerate all valid join graphs up front. Enumeration itself is cheap
  // (graph extension + isValid pruning); the expensive per-graph work
  // (materialize + mine) fans out below, serially or across a WorkerPool.
  JoinGraphEnumerator::Options opts;
  opts.max_edges = config_.max_join_graph_edges;
  opts.cost_threshold = config_.cost_threshold;
  opts.check_cost = config_.enable_cost_pruning;
  opts.pk_check = !config_.enable_pk_pruning ? PkCheckMode::kOff
                  : config_.pk_check_strict  ? PkCheckMode::kAllAttrs
                                             : PkCheckMode::kAnyAttr;
  opts.include_pt_only = config_.include_pt_only_graph;
  // The executor's catalog: the statistics the planner computed for the
  // provenance query serve the cost estimates and the index builds below.
  JoinGraphEnumerator enumerator(schema_graph_, db_, pt.relations, opts,
                                 executor_.stats());

  std::vector<JoinGraph> graphs;
  {
    Timer enum_timer;
    RETURN_NOT_OK(enumerator.Enumerate(
        static_cast<double>(pt_rows.size()), pt.table.schema().num_columns(),
        [&](const JoinGraph& graph) -> Status {
          graphs.push_back(graph);
          return Status::OK();
        }));
    out.profile.Add("JG Enum.", enum_timer.ElapsedSeconds());
  }
  out.enumeration = enumerator.stats();

  // One RNG stream per graph, forked in enumeration order. Every graph
  // consumes a fork whether or not it ends up mined, so the streams — and
  // therefore all sampling decisions — are independent of the execution
  // schedule and of which other graphs get skipped.
  std::vector<Rng> graph_rngs;
  graph_rngs.reserve(graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) graph_rngs.push_back(rng.Fork());

  // Per-graph work, indexed by enumeration order so the merge below
  // reproduces the serial path exactly regardless of completion order.
  struct GraphOutcome {
    Status status = Status::OK();
    std::vector<Explanation> explanations;
    size_t patterns_evaluated = 0;
    bool mined = false;
    bool truncated = false;
    bool skipped_oversize = false;
    StepProfiler profile;
  };
  std::vector<GraphOutcome> outcomes(graphs.size());
  AptMaterializeOptions apt_options = MakeAptOptions(prepared);
  // Observability shared across the fan-out (atomic): peak resident state
  // bytes and shard counts, copied into the result after the merge.
  AptMaterializeMetrics apt_metrics;
  apt_options.metrics = &apt_metrics;
  // The pool serves two fan-outs: graphs here, and — with apt_shard_rows
  // > 0 — shards inside each graph's materialization (ParallelFor nests
  // safely). Hoisted so a single-graph sharded request still parallelizes.
  size_t threads = WorkerPool::ResolveThreads(config_.num_threads);
  std::unique_ptr<WorkerPool> local_pool;
  WorkerPool* pool = nullptr;
  if (threads > 1) {
    if (pool_ != nullptr) {
      pool = pool_;
    } else if (graphs.size() > 1 || config_.apt_shard_rows > 0) {
      local_pool = std::make_unique<WorkerPool>(threads);
      pool = local_pool.get();
    }
  }
  apt_options.pool = pool;
  // Lowest index of a graph that failed with a hard error. Graphs above it
  // are skipped (the serial path's short-circuit); graphs below it still
  // run, so when the fan-out ends it is the lowest graph that fails when
  // executed — the error the serial path reports — at every schedule.
  std::atomic<size_t> first_failed{graphs.size()};
  auto fail = [&](size_t gi, Status status) {
    outcomes[gi].status = std::move(status);
    size_t cur = first_failed.load(std::memory_order_relaxed);
    while (gi < cur && !first_failed.compare_exchange_weak(
                           cur, gi, std::memory_order_relaxed)) {
    }
  };

  auto process_graph_body = [&](size_t gi) {
    const JoinGraph& graph = graphs[gi];
    GraphOutcome& oc = outcomes[gi];
    ShardedApt apt;
    {
      ScopedStep step(&oc.profile, "Materialize APTs");
      Result<ShardedApt> r =
          MaterializeAptSharded(pt, pt_rows, graph, *schema_graph_, *db_,
                                apt_options, config_.apt_shard_rows);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kOutOfRange) {
          // Cost-estimate miss: the APT blew past the hard cap.
          oc.skipped_oversize = true;
        } else {
          fail(gi, r.status());
        }
        return;
      }
      apt = std::move(r).MoveValue();
    }
    if (apt.num_rows() == 0) {
      return;  // context join eliminated all provenance
    }
    Rng graph_rng = graph_rngs[gi];
    PatternMiner miner(&config_, &oc.profile);
    Result<MineResult> mine_result = miner.Mine(apt, classes, &graph_rng);
    if (!mine_result.ok()) {
      fail(gi, mine_result.status());
      return;
    }
    MineResult mined = std::move(mine_result).MoveValue();
    oc.mined = true;
    oc.truncated = mined.budget_exhausted;
    oc.patterns_evaluated = mined.patterns_evaluated;
    const Table& describe_table = apt.schema_table();
    for (const auto& mp : mined.top_k) {
      Explanation e;
      e.join_graph = graph.Describe();
      e.join_conditions = graph.DescribeEdges(*schema_graph_);
      e.pattern = mp.pattern.Describe(describe_table);
      e.primary = mp.primary;
      e.primary_tuple = mp.primary == 0 ? out.t1_description
                                        : out.t2_description;
      e.precision = mp.exact.precision;
      e.recall = mp.exact.recall;
      e.fscore = mp.exact.fscore;
      e.fscore_sampled = mp.scores.fscore;
      e.support_primary = mp.support_primary;
      e.total_primary = mp.total_primary;
      e.support_other = mp.support_other;
      e.total_other = mp.total_other;
      e.pattern_size = static_cast<int>(mp.pattern.size());
      oc.explanations.push_back(std::move(e));
    }
  };

  // WorkerPool tasks must not throw; translate anything the graph work
  // raises (e.g. bad_alloc out of an index build, possibly rethrown to a
  // cache waiter through its shared_future) into the outcome's Status so
  // a failure is catchable identically at every thread count.
  auto process_graph = [&](size_t gi) {
    if (first_failed.load(std::memory_order_relaxed) < gi) return;
    try {
      process_graph_body(gi);
    } catch (const std::exception& e) {
      fail(gi, Status::Internal(Format("explaining join graph %s failed: %s",
                                       graphs[gi].Describe().c_str(),
                                       e.what())));
    } catch (...) {
      fail(gi, Status::Internal(
                   Format("explaining join graph %s failed: unknown exception",
                          graphs[gi].Describe().c_str())));
    }
  };

  if (pool == nullptr || graphs.size() <= 1) {
    // Serial over graphs; a sharded materialization inside still fans its
    // shards across `pool` when one exists (single-graph requests).
    for (size_t gi = 0; gi < graphs.size(); ++gi) process_graph(gi);
  } else {
    // On a pool shared across calls, this call's graphs are one task
    // group; ParallelFor completes when exactly these iterations finish,
    // independent of other calls' loops in flight on the same workers.
    pool->ParallelFor(graphs.size(), process_graph);
  }

  const size_t failed = first_failed.load(std::memory_order_relaxed);
  if (failed < graphs.size()) return outcomes[failed].status;

  // Deterministic merge in enumeration order: counters, step timings (the
  // profiler now accumulates summed worker time, which exceeds wall clock
  // when threads > 1), and explanations.
  for (GraphOutcome& oc : outcomes) {
    if (oc.skipped_oversize) ++out.apts_skipped_oversize;
    if (oc.mined) ++out.apts_mined;
    if (oc.truncated) ++out.apts_truncated;
    out.patterns_evaluated += oc.patterns_evaluated;
    for (const auto& [step, seconds] : oc.profile.totals()) {
      out.profile.Add(step, seconds);
    }
    for (Explanation& e : oc.explanations) {
      out.explanations.push_back(std::move(e));
    }
  }
  out.peak_apt_bytes =
      apt_metrics.peak_state_bytes.load(std::memory_order_relaxed);
  out.apt_shards = apt_metrics.shards.load(std::memory_order_relaxed);

  // Global ranking across join graphs by F-score. stable_sort over the
  // enumeration-ordered list fixes equal-F-score ties by graph index, so
  // the ranking is bit-identical at every thread count.
  std::stable_sort(out.explanations.begin(), out.explanations.end(),
                   [](const Explanation& a, const Explanation& b) {
                     return a.fscore > b.fscore;
                   });
  out.query_result = std::move(prepared.pt.result);
  return out;
}

AptMaterializeOptions Explainer::MakeAptOptions(
    const PreparedExplain& prepared) const {
  AptMaterializeOptions options;
  options.stats = executor_.stats();
  options.index_cache = &index_cache_;
  if (config_.enable_apt_prefix_cache) options.prefix_cache = &prefix_cache_;
  options.row_limit = config_.max_apt_rows;
  // One fingerprint for every graph of this provenance, so a fan-out does
  // not re-hash the row selection per graph.
  options.pt_fingerprint = prepared.pt_fingerprint;
  return options;
}

Result<ShardedApt> Explainer::BuildApt(const ParsedQuery& query,
                                       const UserQuestion& question,
                                       const JoinGraph& graph) const {
  ASSIGN_OR_RETURN(PreparedExplain prepared, Prepare(query, question));
  return MaterializeAptSharded(prepared.pt, prepared.pt_rows, graph,
                               *schema_graph_, *db_, MakeAptOptions(prepared),
                               config_.apt_shard_rows);
}

Result<MineResult> Explainer::MineJoinGraph(const ParsedQuery& query,
                                            const UserQuestion& question,
                                            const JoinGraph& graph,
                                            StepProfiler* profiler) const {
  ASSIGN_OR_RETURN(PreparedExplain prepared, Prepare(query, question));
  StepProfiler local;
  StepProfiler* prof = profiler != nullptr ? profiler : &local;
  ShardedApt apt;
  {
    ScopedStep step(prof, "Materialize APTs");
    ASSIGN_OR_RETURN(apt, MaterializeAptSharded(prepared.pt, prepared.pt_rows,
                                                graph, *schema_graph_, *db_,
                                                MakeAptOptions(prepared),
                                                config_.apt_shard_rows));
  }
  PatternMiner miner(&config_, prof);
  Rng rng(config_.seed);
  return miner.Mine(apt, prepared.classes, &rng);
}

std::vector<Explanation> DeduplicateExplanations(
    const std::vector<Explanation>& ranked) {
  std::vector<Explanation> out;
  std::unordered_map<std::string, bool> seen;
  for (const auto& e : ranked) {
    std::string key = e.pattern + "|" + std::to_string(e.primary);
    if (seen.emplace(std::move(key), true).second) out.push_back(e);
  }
  return out;
}

}  // namespace cajade
