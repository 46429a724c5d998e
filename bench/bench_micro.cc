// Google-benchmark micro-benchmarks for the engine substrates: hash joins
// (the typed kernels vs. the seed's verbatim multimap join, int64 and
// dictionary-code key paths), pattern matching (scalar vs. ANDed predicate
// masks), coverage scoring, LCA candidate generation, random-forest
// training, APT materialization, and the result-cache hit path
// (Explainer::Prepare). Not a paper figure; guards against
// performance regressions in the hot paths the experiments depend on.
//
// `--json <path>` additionally writes the results as JSON (see
// BENCH_join.json / BENCH_mining.json at the repo root). The binary also
// counts global heap allocations so the refinement and mining benchmarks
// can report heap allocations per evaluated pattern as a counter. The
// "before" rows of the executor and APT benchmarks run the differential
// oracles (tests/oracles), which is why this binary links cajade_oracles.

#include <benchmark/benchmark.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <unordered_map>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/datasets/example_nba.h"
#include "src/datasets/mimic.h"
#include "src/datasets/nba.h"
#include "src/exec/executor.h"
#include "src/exec/join.h"
#include "src/mining/apt.h"
#include "src/mining/coverage.h"
#include "src/mining/lca.h"
#include "src/mining/miner.h"
#include "src/mining/pattern_kernel.h"
#include "src/provenance/provenance.h"
#include "src/serve/explain_server.h"
#include "src/sql/parser.h"
#include "tests/oracles/oracles.h"

// ---- Global allocation counter ---------------------------------------------
// Counts every operator-new call in the process; benchmarks snapshot it
// around their inner loop to report heap allocations per iteration.

namespace {
std::atomic<size_t> g_heap_allocs{0};
}  // namespace

// GCC pairs each `new` expression at a call site with the std::free it
// inlines from the replaced operator delete below and reports
// -Wmismatched-new-delete; the pairing is in fact correct because the
// replaced operator new allocates with std::malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cajade {
namespace {

Table MakeIntTable(const char* name, size_t rows, int64_t key_mod, Rng* rng) {
  Table t(name, Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    (void)t.AppendRow({Value(static_cast<int64_t>(rng->NextBounded(key_mod))),
                       Value(rng->UniformDouble())});
  }
  return t;
}

Table MakeStrTable(const char* name, size_t rows, int64_t vocab, Rng* rng) {
  Table t(name, Schema({{"k", DataType::kString}, {"v", DataType::kDouble}}));
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    (void)t.AppendRow(
        {Value("key_" + std::to_string(rng->NextBounded(vocab))),
         Value(rng->UniformDouble())});
  }
  return t;
}

/// The seed's HashEquiJoin, verbatim (std::unordered_multimap build +
/// equal_range probe): the "before" row of BENCH_join.json.
std::vector<std::pair<int64_t, int64_t>> SeedMultimapJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys) {
  std::vector<std::pair<int64_t, int64_t>> out;
  std::unordered_multimap<uint64_t, int64_t> build;
  build.reserve(right_rows.size() * 2);
  for (int64_t r : right_rows) {
    bool has_null = false;
    for (int c : keys.right_cols) {
      if (right.column(c).IsNull(r)) {
        has_null = true;
        break;
      }
    }
    if (has_null) continue;
    build.emplace(HashRowKey(right, r, keys.right_cols), r);
  }
  for (int64_t l : left_rows) {
    uint64_t h = HashRowKey(left, l, keys.left_cols);
    auto range = build.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (RowKeysEqual(left, l, keys.left_cols, right, it->second,
                       keys.right_cols)) {
        out.emplace_back(l, it->second);
      }
    }
  }
  return out;
}

template <typename JoinFn>
void JoinBenchmark(benchmark::State& state, bool string_keys, JoinFn&& join) {
  Rng rng(1);
  size_t n = static_cast<size_t>(state.range(0));
  int64_t key_mod = static_cast<int64_t>(n) / 4;
  Table left = string_keys ? MakeStrTable("l", n, key_mod, &rng)
                           : MakeIntTable("l", n, key_mod, &rng);
  Table right = string_keys ? MakeStrTable("r", n, key_mod, &rng)
                            : MakeIntTable("r", n, key_mod, &rng);
  std::vector<int64_t> lrows(n), rrows(n);
  std::iota(lrows.begin(), lrows.end(), 0);
  std::iota(rrows.begin(), rrows.end(), 0);
  JoinKeySpec keys{{0}, {0}};
  for (auto _ : state) {
    auto pairs = join(left, lrows, right, rrows, keys);
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_HashEquiJoin(benchmark::State& state) {
  JoinBenchmark(state, /*string_keys=*/false,
                [](auto&... args) { return HashEquiJoin(args...); });
}
BENCHMARK(BM_HashEquiJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashEquiJoinStr(benchmark::State& state) {
  JoinBenchmark(state, /*string_keys=*/true,
                [](auto&... args) { return HashEquiJoin(args...); });
}
BENCHMARK(BM_HashEquiJoinStr)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashEquiJoinSeed(benchmark::State& state) {
  JoinBenchmark(state, /*string_keys=*/false,
                [](auto&... args) { return SeedMultimapJoin(args...); });
}
BENCHMARK(BM_HashEquiJoinSeed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashEquiJoinStrSeed(benchmark::State& state) {
  JoinBenchmark(state, /*string_keys=*/true,
                [](auto&... args) { return SeedMultimapJoin(args...); });
}
BENCHMARK(BM_HashEquiJoinStrSeed)->Arg(1000)->Arg(10000)->Arg(100000);

/// End-to-end ExecuteSpj on a two-table equi-join: the kernel-routed
/// executor (Typed) against the seed's tuple-key implementation preserved as
/// the ReferenceExecuteSpj oracle (Seed). `heap_allocs_per_row` divides the
/// heap allocations of one execution by the per-side row count: the typed
/// path must stay near zero (no per-row std::vector<Value> keys), the seed
/// path pays a key vector plus a multimap node per build row.
template <typename ExecFn>
void SpjBenchmark(benchmark::State& state, bool string_keys, ExecFn&& run) {
  Rng rng(2);
  size_t n = static_cast<size_t>(state.range(0));
  int64_t key_mod = static_cast<int64_t>(n) / 4;
  Database db;
  for (const char* name : {"l", "r"}) {
    Table t = string_keys ? MakeStrTable(name, n, key_mod, &rng)
                          : MakeIntTable(name, n, key_mod, &rng);
    auto created = db.CreateTable(name, Schema(t.schema()));
    *created.ValueOrDie() = std::move(t);
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT count(*) AS n FROM l, r WHERE l.k = r.k")
               .ValueOrDie();
  // Warm the executor's stats cache so the counter sees the steady state,
  // not the one-off per-table statistics scan.
  if (!run(exec, q).ok()) {
    state.SkipWithError("warm-up execution failed");
    return;
  }
  size_t allocs = 0;
  size_t out_rows = 0;
  for (auto _ : state) {
    size_t before = g_heap_allocs.load(std::memory_order_relaxed);
    auto out = run(exec, q);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    out_rows = out->table.num_rows();
    benchmark::DoNotOptimize(out_rows);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["out_rows"] = static_cast<double>(out_rows);
  state.counters["heap_allocs_per_row"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * n);
}

void BM_ExecuteSpjTyped(benchmark::State& state) {
  SpjBenchmark(state, /*string_keys=*/false, [](const QueryExecutor& exec,
                                                const ParsedQuery& q) {
    return exec.ExecuteSpj(q);
  });
}
BENCHMARK(BM_ExecuteSpjTyped)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ExecuteSpjSeed(benchmark::State& state) {
  SpjBenchmark(state, /*string_keys=*/false, [](const QueryExecutor& exec,
                                                const ParsedQuery& q) {
    return ReferenceExecuteSpj(*exec.db(), q);
  });
}
BENCHMARK(BM_ExecuteSpjSeed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ExecuteSpjTypedStr(benchmark::State& state) {
  SpjBenchmark(state, /*string_keys=*/true, [](const QueryExecutor& exec,
                                               const ParsedQuery& q) {
    return exec.ExecuteSpj(q);
  });
}
BENCHMARK(BM_ExecuteSpjTypedStr)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ExecuteSpjSeedStr(benchmark::State& state) {
  SpjBenchmark(state, /*string_keys=*/true, [](const QueryExecutor& exec,
                                               const ParsedQuery& q) {
    return ReferenceExecuteSpj(*exec.db(), q);
  });
}
BENCHMARK(BM_ExecuteSpjSeedStr)->Arg(1000)->Arg(10000)->Arg(100000);

struct ExampleFixture {
  Database db;
  SchemaGraph sg;
  ProvenanceTable pt;
  ShardedApt apt;  // one shard
  PtClasses classes;

  static ExampleFixture& Get() {
    static ExampleFixture* f = [] {
      auto* fx = new ExampleFixture();
      fx->db = MakeExampleNbaDatabase().ValueOrDie();
      fx->sg = MakeExampleNbaSchemaGraph(fx->db).ValueOrDie();
      auto query = ParseQuery(
                       "SELECT winner AS team, season, count(*) AS win "
                       "FROM game g WHERE winner = 'GSW' "
                       "GROUP BY winner, season")
                       .ValueOrDie();
      fx->pt = ComputeProvenance(fx->db, query).ValueOrDie();
      std::vector<int64_t> rows;
      for (auto r : fx->pt.output_to_pt_rows[0]) rows.push_back(r);
      size_t n0 = rows.size();
      for (auto r : fx->pt.output_to_pt_rows[1]) rows.push_back(r);
      std::sort(rows.begin(), rows.end());
      // Rebuild classes against the sorted order.
      std::set<int64_t> first(fx->pt.output_to_pt_rows[0].begin(),
                              fx->pt.output_to_pt_rows[0].end());
      (void)n0;
      for (auto r : rows) fx->classes.push_back(first.count(r) > 0 ? 0 : 1);
      // One-hop join graph to player_game_scoring.
      JoinGraph g = JoinGraph::PtOnly();
      int edge = -1, cond = -1;
      for (size_t i = 0; i < fx->sg.edges().size(); ++i) {
        const auto& e = fx->sg.edges()[i];
        if (e.rel_a == "player_game_scoring" && e.rel_b == "game") {
          edge = static_cast<int>(i);
          for (size_t c = 0; c < e.conditions.size(); ++c) {
            if (e.conditions[c].pairs.size() == 4) cond = static_cast<int>(c);
          }
        }
      }
      int node = g.AddNode("player_game_scoring");
      g.AddEdge({0, node, edge, cond, false, "game"});
      fx->apt = MaterializeAptSharded(fx->pt, rows, g, fx->sg, fx->db, {}, 0)
                    .ValueOrDie();
      return fx;
    }();
    return *f;
  }
};

/// Workload for pattern matching: a null-free 64k-row table and a
/// 3-predicate pattern (int >= at ~50% selectivity — the branch-predictor
/// worst case for the scalar path — then double <=, then a 1-in-8 string
/// equality). BM_PatternMatch and BM_PatternMaskAnd both report 3,065
/// matches on it.
struct KernelBenchFixture {
  Table table{"k", Schema({{"i", DataType::kInt64},
                           {"d", DataType::kDouble},
                           {"s", DataType::kString}})};
  Pattern pattern;

  static constexpr size_t kRows = 65536;

  static KernelBenchFixture& Get() {
    static KernelBenchFixture* f = [] {
      auto* fx = new KernelBenchFixture();
      Rng rng(17);
      fx->table.Reserve(kRows);
      for (size_t r = 0; r < kRows; ++r) {
        (void)fx->table.AppendRow(
            {Value(static_cast<int64_t>(rng.NextBounded(1000))),
             Value(rng.UniformDouble()),
             Value("v" + std::to_string(rng.NextBounded(8)))});
      }
      fx->pattern = fx->pattern.Refine(
          PatternPredicate::Make(fx->table, 0, PredOp::kGe, Value(int64_t{500})));
      fx->pattern = fx->pattern.Refine(
          PatternPredicate::Make(fx->table, 1, PredOp::kLe, Value(0.75)));
      fx->pattern = fx->pattern.Refine(
          PatternPredicate::Make(fx->table, 2, PredOp::kEq, Value("v3")));
      return fx;
    }();
    return *f;
  }
};

/// The scalar definition, Pattern::Matches row by row: the "before" row.
void BM_PatternMatch(benchmark::State& state) {
  auto& fx = KernelBenchFixture::Get();
  size_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    for (size_t r = 0; r < fx.table.num_rows(); ++r) {
      matches += fx.pattern.Matches(fx.table, r) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * fx.table.num_rows());
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_PatternMatch);

/// The miner's pattern evaluation, as in the exact re-scoring of the
/// winners: each predicate's CompiledPredicate::EvalMask mask (branch-free
/// compares, 64 rows per word) ANDed into the running match mask with
/// AndPopcountInto. No row-id list is materialized.
void BM_PatternMaskAnd(benchmark::State& state) {
  auto& fx = KernelBenchFixture::Get();
  const std::vector<PatternPredicate>& preds = fx.pattern.preds;
  const size_t rows = fx.table.num_rows();
  const size_t words = CoverageBitmap::NumWords(rows);
  std::vector<uint64_t> match(words), pred_mask(words);
  size_t matches = 0;
  for (auto _ : state) {
    matches = CompiledPredicate::Compile(preds[0], fx.table)
                  .EvalMask(rows, match.data());
    for (size_t p = 1; p < preds.size(); ++p) {
      CompiledPredicate::Compile(preds[p], fx.table)
          .EvalMask(rows, pred_mask.data());
      matches =
          AndPopcountInto(match.data(), pred_mask.data(), words, match.data());
    }
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_PatternMaskAnd);

/// The refinement inner step in isolation: AND the parent's match mask with
/// a numeric predicate's precomputed mask, project the child mask onto PT
/// positions, score both primaries via bitmap popcounts — reporting heap
/// allocations per pattern (0 in steady state).
void BM_RefineStep(benchmark::State& state) {
  auto& fx = ExampleFixture::Get();
  const AptShard& shard = fx.apt.shards[0];
  int pts_col = shard.table.schema().FindColumn("player_game_scoring.pts");
  PatternPredicate pred = PatternPredicate::Make(shard.table, pts_col,
                                                 PredOp::kGe, Value(int64_t{10}));
  const size_t rows = shard.num_rows();
  const size_t words = CoverageBitmap::NumWords(rows);
  std::vector<uint64_t> pred_mask(words);
  CompiledPredicate::Compile(pred, shard.table).EvalMask(rows, pred_mask.data());
  MetricsView full = FullView(fx.apt, fx.classes);
  CoverageScorer scorer(fx.classes, full);
  CoverageBitmap covered(scorer.num_positions());
  CoverageBitmap parent(rows);
  parent.SetAll();
  std::vector<uint64_t> child(words);

  size_t allocs = 0;
  for (auto _ : state) {
    size_t before = g_heap_allocs.load(std::memory_order_relaxed);
    size_t matched = AndPopcountInto(parent.words().data(), pred_mask.data(),
                                     words, child.data());
    covered.Reset(scorer.num_positions());
    CoverageScorer::CoverageFromMask(child.data(), words, shard.pt_row,
                                     &covered);
    PatternScores s0 = scorer.Score(covered, 0);
    PatternScores s1 = scorer.Score(covered, 1);
    benchmark::DoNotOptimize(s0.fscore + s1.fscore + static_cast<double>(matched));
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["heap_allocs_per_pattern"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_RefineStep);

void BM_LcaCandidates(benchmark::State& state) {
  auto& fx = ExampleFixture::Get();
  std::vector<int> cat_cols;
  for (int c : fx.apt.pattern_cols) {
    if (fx.apt.schema_table().column(c).type() == DataType::kString) {
      cat_cols.push_back(c);
    }
  }
  Rng rng(3);
  for (auto _ : state) {
    auto candidates = GenerateLcaCandidates(
        fx.apt, cat_cols, static_cast<size_t>(state.range(0)), &rng);
    benchmark::DoNotOptimize(candidates.data());
  }
}
BENCHMARK(BM_LcaCandidates)->Arg(64)->Arg(256);

void BM_MineApt(benchmark::State& state) {
  auto& fx = ExampleFixture::Get();
  CajadeConfig config;
  PatternMiner miner(&config, nullptr);
  Rng rng(4);
  for (auto _ : state) {
    Rng local = rng.Fork();
    auto result = miner.Mine(fx.apt, fx.classes, &local);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MineApt);

/// A question's prepared PT and one join graph enumerated for it.
struct PreparedGraph {
  PreparedExplain prepared;
  JoinGraph graph;
};

/// Prepares `sql` for `question` on `db` and picks the first join graph
/// described as `graph` among those of at most `max_edges` edges
/// enumerated for its PT.
PreparedGraph PrepareGraph(const Database& db, const SchemaGraph& sg,
                           const std::string& sql, const UserQuestion& question,
                           int max_edges, const std::string& graph) {
  CajadeConfig config;
  Explainer explainer(&db, &sg, config);
  PreparedGraph out{explainer.Prepare(sql, question).ValueOrDie(), {}};
  JoinGraphEnumerator::Options options;
  options.max_edges = max_edges;
  JoinGraphEnumerator enumerator(&sg, &db, out.prepared.pt.relations, options);
  std::vector<JoinGraph> graphs =
      enumerator
          .EnumerateAll(static_cast<double>(out.prepared.pt_rows.size()),
                        out.prepared.pt.table.schema().num_columns())
          .ValueOrDie();
  out.graph = *std::find_if(graphs.begin(), graphs.end(),
                            [&](const JoinGraph& g) {
                              return g.Describe() == graph;
                            });
  return out;
}

/// One APT of an end-to-end workload, as one shard, with its database.
struct WorkloadApt {
  Database db;
  SchemaGraph sg;
  ShardedApt apt;
  PtClasses classes;

  /// Materializes PrepareGraph's pick for these arguments.
  void Materialize(const std::string& sql, const UserQuestion& question,
                   int max_edges, const std::string& graph) {
    PreparedGraph in = PrepareGraph(db, sg, sql, question, max_edges, graph);
    apt = MaterializeAptSharded(in.prepared.pt, in.prepared.pt_rows, in.graph,
                                sg, db, {}, 0)
              .ValueOrDie();
    classes = in.prepared.classes;
  }
};

/// The nba_refine workload (NBA sf 0.2, one-edge join graphs): Qnba1's
/// first graph joining player_game_stats, 447 APT rows over 28 PT rows.
/// Mining it evaluates about 15k patterns without hitting the refinement
/// budget, so the row times the whole back half — fragment boundaries,
/// predicate masks, refinement, ranking — at the APT sizes the NBA workload
/// spends its time on.
const WorkloadApt& NbaApt() {
  static WorkloadApt* fx = [] {
    auto* f = new WorkloadApt();
    NbaOptions opt;
    opt.scale_factor = 0.2;
    f->db = MakeNbaDatabase(opt).ValueOrDie();
    f->sg = MakeNbaSchemaGraph(f->db).ValueOrDie();
    f->Materialize(NbaQuerySql(1), bench::NbaQuestion(1), 1,
                   "PT - player_game_stats");
    return f;
  }();
  return *fx;
}

/// The mimic_lca workload (MIMIC sf 1.0, two-edge join graphs): Qmimic1's
/// first graph joining procedures and then admissions, 14,833 APT rows.
/// Its LCA sample is 1,000 rows over four categorical attributes, which
/// yields 839 candidates, and LCA candidates plus F-score Calc. take about
/// the share of this APT's Mine() time that they take of a traced
/// mimic_lca call.
const WorkloadApt& MimicApt() {
  static WorkloadApt* fx = [] {
    auto* f = new WorkloadApt();
    MimicOptions opt;
    opt.scale_factor = 1.0;
    f->db = MakeMimicDatabase(opt).ValueOrDie();
    f->sg = MakeMimicSchemaGraph(f->db).ValueOrDie();
    f->Materialize(MimicQuerySql(1), bench::MimicQuestion(1), 2,
                   "PT - procedures - admissions");
    return f;
  }();
  return *fx;
}

/// PatternMiner::Mine on `fx`'s APT with the default config and a profiler
/// attached, as the explainer runs it. Every iteration mines with the same
/// seed, so each does the same work; `heap_allocs_per_pattern` divides the
/// heap allocations of whole Mine() calls by the patterns they evaluated.
void MineWorkloadApt(benchmark::State& state, const WorkloadApt& fx) {
  CajadeConfig config;
  StepProfiler profiler;
  PatternMiner miner(&config, &profiler);
  size_t allocs = 0;
  size_t patterns = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    Rng rng(config.seed);
    size_t before = g_heap_allocs.load(std::memory_order_relaxed);
    auto result = miner.Mine(fx.apt, fx.classes, &rng);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    patterns += result->patterns_evaluated;
    candidates += result->lca_candidates;
    benchmark::DoNotOptimize(result->top_k.data());
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["patterns_evaluated"] =
      static_cast<double>(patterns) / iterations;
  state.counters["lca_candidates"] =
      static_cast<double>(candidates) / iterations;
  state.counters["heap_allocs_per_pattern"] =
      static_cast<double>(allocs) / static_cast<double>(patterns);
}

void BM_MineNbaApt(benchmark::State& state) {
  MineWorkloadApt(state, NbaApt());
}
BENCHMARK(BM_MineNbaApt);

void BM_MineMimicApt(benchmark::State& state) {
  MineWorkloadApt(state, MimicApt());
}
BENCHMARK(BM_MineMimicApt);

/// PatternMiner::SelectAttributes, Mine()'s feature-selection step (the
/// feature matrix, the random forest and attribute clustering), on `fx`'s
/// APT with the default config and the seed Mine() would start from.
/// `selected_attrs` must equal what Mine() reports; `heap_allocs` counts
/// one call's heap allocations.
void SelectWorkloadAttributes(benchmark::State& state, const WorkloadApt& fx) {
  CajadeConfig config;
  PatternMiner miner(&config, nullptr);
  size_t selected = 0;
  size_t allocs = 0;
  for (auto _ : state) {
    Rng rng(config.seed);
    size_t before = g_heap_allocs.load(std::memory_order_relaxed);
    std::vector<int> attrs = miner.SelectAttributes(fx.apt, fx.classes, &rng);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    selected = attrs.size();
    benchmark::DoNotOptimize(attrs.data());
  }
  state.counters["selected_attrs"] = static_cast<double>(selected);
  state.counters["heap_allocs"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}

void BM_SelectAttributesNbaApt(benchmark::State& state) {
  SelectWorkloadAttributes(state, NbaApt());
}
BENCHMARK(BM_SelectAttributesNbaApt);

void BM_SelectAttributesMimicApt(benchmark::State& state) {
  SelectWorkloadAttributes(state, MimicApt());
}
BENCHMARK(BM_SelectAttributesMimicApt);

/// serve_rw's data: MIMIC sf 0.1 at the generator's default seed.
const std::pair<Database, SchemaGraph>& ServeRwData() {
  static const auto* data = [] {
    auto* d = new std::pair<Database, SchemaGraph>();
    MimicOptions opt;
    opt.scale_factor = 0.1;
    d->first = MakeMimicDatabase(opt).ValueOrDie();
    d->second = MakeMimicSchemaGraph(d->first).ValueOrDie();
    return d;
  }();
  return *data;
}

/// serve_rw's four queries, Qmimic2, 1, 3 and 5, each with its first
/// question.
std::vector<std::pair<std::string, UserQuestion>> ServeRwRequests() {
  std::vector<std::pair<std::string, UserQuestion>> requests;
  for (int q : {2, 1, 3, 5}) {
    requests.emplace_back(MimicQuerySql(q), bench::MimicQuestion(q));
  }
  return requests;
}

/// What a result-cache re-validation costs, and a miss pays up front: one
/// warm Explainer::Prepare (parse, provenance, question resolution, PT
/// fingerprint) per serve_rw request. An iteration prepares all four, so a
/// query's mean is a quarter of it; `pt_cells` counts the PT cells (rows x
/// columns) of the four.
void BM_PrepareMimic(benchmark::State& state) {
  const auto& data = ServeRwData();
  CajadeConfig config;
  Explainer explainer(&data.first, &data.second, config);
  const auto requests = ServeRwRequests();
  size_t pt_cells = 0;
  auto prepare_all = [&] {
    pt_cells = 0;
    for (const auto& [sql, question] : requests) {
      Result<PreparedExplain> prepared = explainer.Prepare(sql, question);
      if (!prepared.ok()) return prepared.status();
      pt_cells += prepared->pt.table.num_rows() * prepared->pt.table.num_columns();
      benchmark::DoNotOptimize(prepared->pt_fingerprint.data());
    }
    return Status::OK();
  };
  Status warm = prepare_all();  // warm the executor's table statistics
  if (!warm.ok()) {
    state.SkipWithError(warm.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Status s = prepare_all();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.counters["pt_cells"] = static_cast<double>(pt_cells);
}
BENCHMARK(BM_PrepareMimic);

/// A served request's whole cost on a result-cache hit whose FROM tables
/// did not change: one warmed ExplainServer (one request slot, a one-thread
/// pool, as serve_rw runs it) serves the four serve_rw requests, each
/// validated by input versions without Prepare. An iteration serves all
/// four, so a hit's mean is a quarter of it; `version_hits` counts an
/// iteration's version-validated hits and must read 4.
void BM_ServeHitMimic(benchmark::State& state) {
  const auto& data = ServeRwData();
  // Built and warmed once: the warm-up mines all four requests.
  static ExplainServer* server = [&data] {
    ExplainServer::Options options;
    options.num_explainers = 1;
    options.pool_threads = 1;
    return new ExplainServer(&data.first, &data.second, options);
  }();
  const auto requests = ServeRwRequests();
  auto serve_all = [&] {
    for (const auto& [sql, question] : requests) {
      auto served = server->Explain(sql, question);
      if (!served.ok()) return served.status();
      benchmark::DoNotOptimize(served->get());
    }
    return Status::OK();
  };
  Status warm = serve_all();
  if (!warm.ok()) {
    state.SkipWithError(warm.ToString().c_str());
    return;
  }
  const size_t before = server->counters().version_hits;
  for (auto _ : state) {
    Status s = serve_all();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.counters["version_hits"] =
      static_cast<double>(server->counters().version_hits - before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServeHitMimic);

/// End-to-end Explain() on the scaling (synthetic full-schema NBA) dataset
/// at 1/2/4/8 worker threads. The /1 run records its per-iteration time so
/// the threaded runs can report `speedup_vs_serial`; a separate
/// `num_threads` counter keeps the JSON self-describing. The differential
/// test (tests/parallel_test.cc) pins the outputs bit-identical, so this
/// measures pure scheduling overhead/scaling, not quality drift.
void BM_ExplainParallel(benchmark::State& state) {
  struct ScalingFixture {
    Database db;
    SchemaGraph sg;
    ParsedQuery query;
    UserQuestion question = bench::NbaQuestion(4);

    static ScalingFixture& Get() {
      static ScalingFixture* f = [] {
        auto* fx = new ScalingFixture();
        NbaOptions opt;
        opt.scale_factor = 0.05;
        fx->db = MakeNbaDatabase(opt).ValueOrDie();
        fx->sg = MakeNbaSchemaGraph(fx->db).ValueOrDie();
        fx->query = ParseQuery(NbaQuerySql(4)).ValueOrDie();
        return fx;
      }();
      return *f;
    }
  };
  static double serial_seconds_per_iter = 0.0;

  auto& fx = ScalingFixture::Get();
  int threads = static_cast<int>(state.range(0));
  Explainer explainer(&fx.db, &fx.sg);
  explainer.mutable_config()->num_threads = threads;
  explainer.mutable_config()->max_join_graph_edges = 2;

  double total_seconds = 0.0;
  size_t explanations = 0;
  for (auto _ : state) {
    Timer timer;
    auto result = explainer.Explain(fx.query, fx.question);
    total_seconds += timer.ElapsedSeconds();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    explanations = result->explanations.size();
    benchmark::DoNotOptimize(explanations);
  }
  double per_iter = total_seconds / static_cast<double>(state.iterations());
  if (threads == 1) serial_seconds_per_iter = per_iter;
  state.counters["num_threads"] = static_cast<double>(threads);
  state.counters["explanations"] = static_cast<double>(explanations);
  if (serial_seconds_per_iter > 0.0) {
    state.counters["speedup_vs_serial"] = serial_seconds_per_iter / per_iter;
  }
}
// No ->Unit() override: the JSON capture writes GetAdjustedRealTime, which
// reports in the declared unit — every row of BENCH_mining.json stays ns.
BENCHMARK(BM_ExplainParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Shared-prefix APT workload: a synthetic star with 1:1 joins so APT sizes
/// stay constant — fact(20k, 5 cols) - dima - dimb - {dimc | dimd}. The
/// family PT-A-B-C / PT-A-B-D shares the PT-A-B prefix, which is the shape
/// the prefix cache exploits; PT-A-B alone is the Seed-vs-Kernel workload.
struct AptBenchFixture {
  Database db;
  SchemaGraph sg;
  ProvenanceTable pt;
  std::vector<int64_t> rows;
  JoinGraph g_ab;
  std::vector<JoinGraph> family;

  static constexpr size_t kRows = 20000;

  static AptBenchFixture& Get() {
    static AptBenchFixture* f = [] {
      auto* fx = new AptBenchFixture();
      Rng rng(11);
      auto add = [&](const char* name, Table t) {
        auto created = fx->db.CreateTable(name, Schema(t.schema()));
        *created.ValueOrDie() = std::move(t);
      };
      {
        Table t("fact", Schema({{"grp", DataType::kString},
                                {"k", DataType::kInt64},
                                {"f1", DataType::kInt64},
                                {"f2", DataType::kDouble},
                                {"f3", DataType::kString}}));
        t.Reserve(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          (void)t.AppendRow({Value(i % 2 == 0 ? "x" : "y"),
                             Value(static_cast<int64_t>(i)),
                             Value(static_cast<int64_t>(rng.NextBounded(50))),
                             Value(rng.UniformDouble()),
                             Value("f" + std::to_string(rng.NextBounded(8)))});
        }
        add("fact", std::move(t));
      }
      {
        Table t("dima", Schema({{"ak", DataType::kInt64},
                                {"aj", DataType::kInt64},
                                {"a1", DataType::kString},
                                {"a2", DataType::kDouble}}));
        t.Reserve(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          (void)t.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(static_cast<int64_t>(i)),
                             Value("a" + std::to_string(rng.NextBounded(16))),
                             Value(rng.UniformDouble())});
        }
        add("dima", std::move(t));
      }
      {
        Table t("dimb", Schema({{"bk", DataType::kInt64},
                                {"bj", DataType::kInt64},
                                {"b1", DataType::kInt64}}));
        t.Reserve(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          (void)t.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(static_cast<int64_t>(i)),
                             Value(static_cast<int64_t>(rng.NextBounded(7)))});
        }
        add("dimb", std::move(t));
      }
      for (const char* dim : {"dimc", "dimd"}) {
        Table t(dim, Schema({{dim[3] == 'c' ? "ck" : "dk", DataType::kInt64},
                             {"v", DataType::kInt64}}));
        t.Reserve(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          (void)t.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(static_cast<int64_t>(rng.NextBounded(99)))});
        }
        add(dim, std::move(t));
      }

      auto cond = [](const char* l, const char* r) {
        JoinConditionDef c;
        c.pairs = {{l, r}};
        return c;
      };
      (void)fx->sg.AddCondition("fact", "dima", cond("k", "ak"));
      (void)fx->sg.AddCondition("dima", "dimb", cond("aj", "bk"));
      (void)fx->sg.AddCondition("dimb", "dimc", cond("bj", "ck"));
      (void)fx->sg.AddCondition("dimb", "dimd", cond("bj", "dk"));

      auto query =
          ParseQuery("SELECT grp, count(*) AS n FROM fact GROUP BY grp")
              .ValueOrDie();
      fx->pt = ComputeProvenance(fx->db, query).ValueOrDie();
      for (const auto& part : fx->pt.output_to_pt_rows) {
        for (int64_t r : part) fx->rows.push_back(r);
      }
      std::sort(fx->rows.begin(), fx->rows.end());

      fx->g_ab = JoinGraph::PtOnly();
      int a = fx->g_ab.AddNode("dima");
      fx->g_ab.AddEdge({0, a, 0, 0, true, "fact"});
      int b = fx->g_ab.AddNode("dimb");
      fx->g_ab.AddEdge({a, b, 1, 0, true, ""});
      for (int leaf = 0; leaf < 2; ++leaf) {
        JoinGraph g = fx->g_ab;
        int n = g.AddNode(leaf == 0 ? "dimc" : "dimd");
        g.AddEdge({b, n, 2 + leaf, 0, true, ""});
        fx->family.push_back(std::move(g));
      }
      return fx;
    }();
    return *f;
  }
};

/// The scalar reference materializer on PT-A-B: the "before" row.
void BM_MaterializeAptSeed(benchmark::State& state) {
  auto& fx = AptBenchFixture::Get();
  size_t apt_rows = 0;
  for (auto _ : state) {
    auto apt = ReferenceMaterializeApt(fx.pt, fx.rows, fx.g_ab, fx.sg, fx.db);
    apt_rows = apt.ValueOrDie().num_rows();
    benchmark::DoNotOptimize(apt_rows);
  }
  state.SetItemsProcessed(state.iterations() * fx.rows.size());
  state.counters["apt_rows"] = static_cast<double>(apt_rows);
}
BENCHMARK(BM_MaterializeAptSeed);

/// The kernel path on the same graph as one full-range shard: typed cached
/// indexes + stats-fed sizing, prefix cache off (its effect is measured
/// separately below).
void BM_MaterializeAptKernel(benchmark::State& state) {
  auto& fx = AptBenchFixture::Get();
  AptIndexCache index_cache;
  StatsCatalog stats;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.stats = &stats;
  size_t apt_rows = 0;
  for (auto _ : state) {
    auto apt =
        MaterializeAptSharded(fx.pt, fx.rows, fx.g_ab, fx.sg, fx.db, options, 0);
    apt_rows = apt.ValueOrDie().num_rows();
    benchmark::DoNotOptimize(apt_rows);
  }
  state.SetItemsProcessed(state.iterations() * fx.rows.size());
  state.counters["apt_rows"] = static_cast<double>(apt_rows);
}
BENCHMARK(BM_MaterializeAptKernel);

/// Sharded materialization of the same PT-A-B graph at 8 shards (shard size
/// kRows/8), serial shard loop — the honest configuration for the 1-core
/// container. Wall time must stay close to BM_MaterializeAptKernel (the
/// bench_diff gate allows 25%); the headline is `peak_state_bytes`, the
/// high-water resident join-state footprint, reported next to the one-shard
/// peak for the same graph (counter `unsharded_peak_bytes`).
void BM_MaterializeAptSharded(benchmark::State& state) {
  auto& fx = AptBenchFixture::Get();
  AptIndexCache index_cache;
  StatsCatalog stats;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.stats = &stats;
  size_t one_shard_peak = [&] {
    AptMaterializeMetrics m;
    AptMaterializeOptions o = options;
    o.metrics = &m;
    (void)MaterializeAptSharded(fx.pt, fx.rows, fx.g_ab, fx.sg, fx.db, o, 0);
    return m.peak_state_bytes.load();
  }();
  const size_t shard_rows = (fx.rows.size() + 7) / 8;
  AptMaterializeMetrics metrics;
  options.metrics = &metrics;
  size_t apt_rows = 0;
  size_t num_shards = 0;
  for (auto _ : state) {
    metrics.peak_state_bytes.store(0);
    auto sharded = MaterializeAptSharded(fx.pt, fx.rows, fx.g_ab, fx.sg,
                                         fx.db, options, shard_rows);
    const ShardedApt& apt = sharded.ValueOrDie();
    apt_rows = apt.num_rows();
    num_shards = apt.shards.size();
    benchmark::DoNotOptimize(apt_rows);
  }
  state.SetItemsProcessed(state.iterations() * fx.rows.size());
  state.counters["apt_rows"] = static_cast<double>(apt_rows);
  state.counters["num_shards"] = static_cast<double>(num_shards);
  state.counters["peak_state_bytes"] =
      static_cast<double>(metrics.peak_state_bytes.load());
  state.counters["unsharded_peak_bytes"] = static_cast<double>(one_shard_peak);
}
BENCHMARK(BM_MaterializeAptSharded);

/// Sharded materialization on the mimic_sharded workload's inputs: MIMIC
/// sf 1.0 (MimicApt()'s database), Qmimic1's PT (5,917 rows) and its
/// "PT - diagnoses - admissions" graph (37,588 APT rows) in that workload's
/// 512-row shards, serial shard loop, warm index cache and stats, no prefix
/// cache, state-byte metrics on as in Explainer. Each step of each shard
/// builds string columns over the source columns' dictionaries, and
/// diagnoses.icd9_code alone holds 9,948 entries, so this row shows the
/// per-shard set-up cost of those columns. BM_MaterializeAptSharded cannot:
/// its synthetic dictionaries hold at most 16 entries.
void BM_MaterializeMimicSharded(benchmark::State& state) {
  const WorkloadApt& fx = MimicApt();
  static const PreparedGraph* in = new PreparedGraph(
      PrepareGraph(fx.db, fx.sg, MimicQuerySql(1), bench::MimicQuestion(1), 2,
                   "PT - diagnoses - admissions"));
  constexpr size_t kShardRows = 512;
  AptIndexCache index_cache;
  StatsCatalog stats;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.stats = &stats;
  AptMaterializeMetrics metrics;
  options.metrics = &metrics;
  auto materialize = [&] {
    return MaterializeAptSharded(in->prepared.pt, in->prepared.pt_rows,
                                 in->graph, fx.sg, fx.db, options, kShardRows)
        .ValueOrDie();
  };
  (void)materialize();  // warm the index cache and stats
  size_t apt_rows = 0;
  size_t num_shards = 0;
  for (auto _ : state) {
    ShardedApt apt = materialize();
    apt_rows = apt.num_rows();
    num_shards = apt.shards.size();
    benchmark::DoNotOptimize(apt_rows);
  }
  state.SetItemsProcessed(state.iterations() * in->prepared.pt_rows.size());
  state.counters["apt_rows"] = static_cast<double>(apt_rows);
  state.counters["num_shards"] = static_cast<double>(num_shards);
}
BENCHMARK(BM_MaterializeMimicSharded);

/// Materializes the PT-A-B-{C,D} sibling family with a persistent prefix
/// cache (the timed, warm path: only each graph's last join runs) and
/// reports `speedup_warm_vs_cold` against a cold run that starts from an
/// empty prefix cache (same warm index cache/stats in both, so the counter
/// isolates the prefix sharing).
void BM_MaterializeAptSharedPrefix(benchmark::State& state) {
  auto& fx = AptBenchFixture::Get();
  static AptIndexCache* index_cache = new AptIndexCache();
  static StatsCatalog* stats = new StatsCatalog();

  auto run_family = [&](AptPrefixCache* prefix_cache) {
    size_t rows = 0;
    for (const JoinGraph& g : fx.family) {
      AptMaterializeOptions options;
      options.index_cache = index_cache;
      options.stats = stats;
      options.prefix_cache = prefix_cache;
      rows += MaterializeAptSharded(fx.pt, fx.rows, g, fx.sg, fx.db, options, 0)
                  .ValueOrDie()
                  .num_rows();
    }
    return rows;
  };

  static double cold_seconds = [&] {
    run_family(nullptr);  // warm the index cache and stats first
    constexpr int kReps = 3;
    Timer timer;
    for (int i = 0; i < kReps; ++i) {
      AptPrefixCache fresh;
      run_family(&fresh);
    }
    return timer.ElapsedSeconds() / kReps;
  }();

  static AptPrefixCache* warm_cache = new AptPrefixCache();
  run_family(warm_cache);  // populate the shared prefix before timing

  size_t apt_rows = 0;
  double total_seconds = 0.0;
  for (auto _ : state) {
    Timer timer;
    apt_rows = run_family(warm_cache);
    total_seconds += timer.ElapsedSeconds();
    benchmark::DoNotOptimize(apt_rows);
  }
  double per_iter = total_seconds / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * fx.rows.size() *
                          fx.family.size());
  state.counters["apt_rows"] = static_cast<double>(apt_rows);
  state.counters["cold_ms"] = cold_seconds * 1e3;
  if (per_iter > 0.0) {
    state.counters["speedup_warm_vs_cold"] = cold_seconds / per_iter;
  }
}
BENCHMARK(BM_MaterializeAptSharedPrefix);

}  // namespace

/// Whether a benchmark run failed/was skipped, across google-benchmark API
/// generations: 1.8+ has Run::skipped, earlier versions Run::error_occurred.
template <typename R>
auto RunWasSkipped(const R& run, int) -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}
template <typename R>
bool RunWasSkipped(const R& run, long) {
  return run.error_occurred;
}

/// Console reporter that also captures each run into a BenchJsonWriter.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::BenchJsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (RunWasSkipped(run, 0)) continue;
      double items_per_second = 0;
      std::vector<std::pair<std::string, double>> extra;
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          items_per_second = counter;
        } else {
          extra.emplace_back(name, counter);
        }
      }
      writer_->Add(run.benchmark_name(), run.GetAdjustedRealTime(),
                   run.iterations, items_per_second, extra);
    }
  }

 private:
  bench::BenchJsonWriter* writer_;
};

}  // namespace cajade

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin the allocator's large-allocation policy. glibc grows M_MMAP_THRESHOLD
  // dynamically as big blocks are freed, so a benchmark's wall time depends
  // on which benchmarks allocated before it: a filtered smoke run would churn
  // fresh mmap pages (and their page faults) every iteration while the same
  // benchmark inside the full suite reuses warm heap pages. Serving large
  // blocks from the heap from the start (and never trimming it) makes
  // timings comparable between the full-suite baselines and CI's smoke run.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  std::string json_path = cajade::bench::ExtractJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  size_t num_run = 0;
  if (json_path.empty()) {
    num_run = benchmark::RunSpecifiedBenchmarks();
  } else {
    cajade::bench::BenchJsonWriter writer;
    cajade::JsonCaptureReporter reporter(&writer);
    num_run = benchmark::RunSpecifiedBenchmarks(&reporter);
    if (num_run > 0 && !writer.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  if (num_run == 0) {
    // A renamed benchmark must not silently pass CI's regression gate: an
    // empty selection is an error, not an empty success.
    std::fprintf(stderr,
                 "bench_micro: --benchmark_filter matched no benchmarks\n");
    return 1;
  }
  return 0;
}
