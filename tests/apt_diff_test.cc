// Differential tests for MaterializeAptSharded against the scalar
// ReferenceMaterializeApt oracle: shared-prefix graph families,
// cycle-closing graphs, NULL-heavy columns, composite and DOUBLE keys,
// caches on/off, shard sizes from one row to one full-range shard, and the
// parallel explainer at threads in {1, 4, 8} — all bit-identical, errors
// included. Also pins the NULL-never-matches contract on tree and cycle
// edges, the prefix cache's counters and memory bound, the single pass of a
// failing one-shard materialization, and the deterministic lowest-index
// error report under forced multi-graph failure. The ASan/UBSan and TSan CI
// legs run this binary.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/explainer.h"
#include "src/graph/join_graph.h"
#include "src/mining/apt.h"
#include "src/provenance/provenance.h"
#include "src/sql/parser.h"
#include "src/stats/table_stats.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

// ---- Synthetic star schema --------------------------------------------------
// fact(g, k, s, val) -- dima(ak, aj, as, anote) -- {dimb(bk, bf, bv),
// dimc(ck, cs)}; dimb also joins fact directly (cycle closer), dimd joins
// fact on a DOUBLE key (generic hash+verify layout).

struct DiffFixture {
  Database db;
  SchemaGraph sg;
  ProvenanceTable pt;
  std::vector<int64_t> pt_rows;

  int e_fact_dima = -1, c_ka = -1, c_ka_sa = -1;
  int e_dima_dimb = -1, c_ab = -1;
  int e_dima_dimc = -1, c_ac = -1;
  int e_fact_dimb = -1, c_fb = -1;
  int e_fact_dimd = -1, c_fd = -1;
};

struct FixtureParams {
  uint64_t seed = 1;
  size_t fact_rows = 120;
  size_t dim_rows = 50;
  double null_rate = 0.3;
  /// Added to every int key: large bases exercise the packed-offset math.
  int64_t key_base = 0;
  int64_t key_range = 12;
  int64_t j_range = 8;
  /// Force every dima.ak to NULL (build side of the PT edge all-null).
  bool dima_keys_all_null = false;
};

void AddTable(Database* db, const char* name, Table t) {
  auto created = db->CreateTable(name, Schema(t.schema()));
  *created.ValueOrDie() = std::move(t);
}

// gtest's ASSERT_* cannot be used in a value-returning helper; a trivial
// abort-on-error shim keeps fixture construction terse.
#define ASSERT_OK_HELPER(expr)             \
  do {                                     \
    ::cajade::Status _st = (expr);         \
    if (!_st.ok()) AbortWithStatus(_st);   \
  } while (false)

Value MaybeNullInt(Rng* rng, double null_rate, int64_t v) {
  return rng->Bernoulli(null_rate) ? Value::Null() : Value(v);
}

Value MaybeNullStr(Rng* rng, double null_rate, const std::string& v) {
  return rng->Bernoulli(null_rate) ? Value::Null() : Value(v);
}

DiffFixture MakeFixture(const FixtureParams& p) {
  DiffFixture fx;
  Rng rng(p.seed);

  Table fact("fact", Schema({{"g", DataType::kString},
                             {"k", DataType::kInt64},
                             {"s", DataType::kString},
                             {"val", DataType::kDouble}}));
  for (size_t i = 0; i < p.fact_rows; ++i) {
    (void)fact.AppendRow(
        {Value(rng.Bernoulli(0.5) ? "x" : "y"),
         MaybeNullInt(&rng, p.null_rate,
                      p.key_base + rng.UniformInt(0, p.key_range - 1)),
         MaybeNullStr(&rng, p.null_rate,
                      "s" + std::to_string(rng.UniformInt(0, 5))),
         Value(static_cast<double>(rng.UniformInt(0, 6)))});
  }
  AddTable(&fx.db, "fact", std::move(fact));

  Table dima("dima", Schema({{"ak", DataType::kInt64},
                             {"aj", DataType::kInt64},
                             {"as", DataType::kString},
                             {"anote", DataType::kString}}));
  for (size_t i = 0; i < p.dim_rows; ++i) {
    (void)dima.AppendRow(
        {p.dima_keys_all_null
             ? Value::Null()
             : MaybeNullInt(&rng, p.null_rate,
                            p.key_base + rng.UniformInt(0, p.key_range - 1)),
         MaybeNullInt(&rng, p.null_rate, rng.UniformInt(0, p.j_range - 1)),
         MaybeNullStr(&rng, p.null_rate,
                      "s" + std::to_string(rng.UniformInt(0, 5))),
         Value("n" + std::to_string(rng.UniformInt(0, 3)))});
  }
  AddTable(&fx.db, "dima", std::move(dima));

  Table dimb("dimb", Schema({{"bk", DataType::kInt64},
                             {"bf", DataType::kInt64},
                             {"bv", DataType::kInt64}}));
  for (size_t i = 0; i < p.dim_rows; ++i) {
    (void)dimb.AppendRow(
        {MaybeNullInt(&rng, p.null_rate, rng.UniformInt(0, p.j_range - 1)),
         MaybeNullInt(&rng, p.null_rate,
                      p.key_base + rng.UniformInt(0, p.key_range - 1)),
         Value(rng.UniformInt(0, 99))});
  }
  AddTable(&fx.db, "dimb", std::move(dimb));

  Table dimc("dimc", Schema({{"ck", DataType::kInt64},
                             {"cs", DataType::kString}}));
  for (size_t i = 0; i < p.dim_rows; ++i) {
    (void)dimc.AppendRow(
        {MaybeNullInt(&rng, p.null_rate, rng.UniformInt(0, p.j_range - 1)),
         MaybeNullStr(&rng, p.null_rate,
                      "c" + std::to_string(rng.UniformInt(0, 4)))});
  }
  AddTable(&fx.db, "dimc", std::move(dimc));

  Table dimd("dimd", Schema({{"dv", DataType::kDouble},
                             {"dn", DataType::kInt64}}));
  for (size_t i = 0; i < p.dim_rows; ++i) {
    (void)dimd.AppendRow(
        {rng.Bernoulli(p.null_rate)
             ? Value::Null()
             : Value(static_cast<double>(rng.UniformInt(0, 6))),
         Value(rng.UniformInt(0, 99))});
  }
  AddTable(&fx.db, "dimd", std::move(dimd));

  auto cond = [](std::vector<AttrPair> pairs) {
    JoinConditionDef c;
    c.pairs = std::move(pairs);
    return c;
  };
  ASSERT_OK_HELPER(fx.sg.AddCondition("fact", "dima", cond({{"k", "ak"}})));
  ASSERT_OK_HELPER(
      fx.sg.AddCondition("fact", "dima", cond({{"k", "ak"}, {"s", "as"}})));
  ASSERT_OK_HELPER(fx.sg.AddCondition("dima", "dimb", cond({{"aj", "bk"}})));
  ASSERT_OK_HELPER(fx.sg.AddCondition("dima", "dimc", cond({{"aj", "ck"}})));
  ASSERT_OK_HELPER(fx.sg.AddCondition("fact", "dimb", cond({{"k", "bf"}})));
  ASSERT_OK_HELPER(fx.sg.AddCondition("fact", "dimd", cond({{"val", "dv"}})));

  for (size_t i = 0; i < fx.sg.edges().size(); ++i) {
    const SchemaEdge& e = fx.sg.edges()[i];
    if (e.rel_a == "fact" && e.rel_b == "dima") {
      fx.e_fact_dima = static_cast<int>(i);
      for (size_t c = 0; c < e.conditions.size(); ++c) {
        if (e.conditions[c].pairs.size() == 1) fx.c_ka = static_cast<int>(c);
        if (e.conditions[c].pairs.size() == 2) fx.c_ka_sa = static_cast<int>(c);
      }
    } else if (e.rel_a == "dima" && e.rel_b == "dimb") {
      fx.e_dima_dimb = static_cast<int>(i);
      fx.c_ab = 0;
    } else if (e.rel_a == "dima" && e.rel_b == "dimc") {
      fx.e_dima_dimc = static_cast<int>(i);
      fx.c_ac = 0;
    } else if (e.rel_a == "fact" && e.rel_b == "dimb") {
      fx.e_fact_dimb = static_cast<int>(i);
      fx.c_fb = 0;
    } else if (e.rel_a == "fact" && e.rel_b == "dimd") {
      fx.e_fact_dimd = static_cast<int>(i);
      fx.c_fd = 0;
    }
  }

  auto query =
      ParseQuery("SELECT g, count(*) AS n FROM fact GROUP BY g").ValueOrDie();
  fx.pt = ComputeProvenance(fx.db, query).ValueOrDie();
  for (const auto& rows : fx.pt.output_to_pt_rows) {
    for (int64_t r : rows) fx.pt_rows.push_back(r);
  }
  std::sort(fx.pt_rows.begin(), fx.pt_rows.end());
  return fx;
}

/// The graph family over the fixture: shared prefixes, a composite key, a
/// cycle closer, and a DOUBLE-key (generic layout) join.
std::vector<std::pair<std::string, JoinGraph>> MakeGraphFamily(
    const DiffFixture& fx) {
  std::vector<std::pair<std::string, JoinGraph>> graphs;
  graphs.emplace_back("PT-only", JoinGraph::PtOnly());

  auto pt_a = [&](int cond) {
    JoinGraph g = JoinGraph::PtOnly();
    int a = g.AddNode("dima");
    g.AddEdge({0, a, fx.e_fact_dima, cond, true, "fact"});
    return g;
  };
  graphs.emplace_back("PT-A", pt_a(fx.c_ka));
  graphs.emplace_back("PT-A-composite", pt_a(fx.c_ka_sa));

  {
    JoinGraph g = pt_a(fx.c_ka);
    int b = g.AddNode("dimb");
    g.AddEdge({1, b, fx.e_dima_dimb, fx.c_ab, true, ""});
    graphs.emplace_back("PT-A-B", std::move(g));
  }
  {
    JoinGraph g = pt_a(fx.c_ka);
    int c = g.AddNode("dimc");
    g.AddEdge({1, c, fx.e_dima_dimc, fx.c_ac, true, ""});
    graphs.emplace_back("PT-A-C", std::move(g));
  }
  {
    // Cycle: PT-A, A-B, plus the fact-dimb edge closing PT-B.
    JoinGraph g = pt_a(fx.c_ka);
    int b = g.AddNode("dimb");
    g.AddEdge({1, b, fx.e_dima_dimb, fx.c_ab, true, ""});
    g.AddEdge({0, b, fx.e_fact_dimb, fx.c_fb, true, "fact"});
    graphs.emplace_back("PT-A-B-cycle", std::move(g));
  }
  {
    // Cycle via a parallel edge: join on k=ak, then close with the
    // composite (k=ak AND s=as) condition as a filter.
    JoinGraph g = pt_a(fx.c_ka);
    g.AddEdge({0, 1, fx.e_fact_dima, fx.c_ka_sa, true, "fact"});
    graphs.emplace_back("PT-A-parallel-cycle", std::move(g));
  }
  {
    JoinGraph g = JoinGraph::PtOnly();
    int d = g.AddNode("dimd");
    g.AddEdge({0, d, fx.e_fact_dimd, fx.c_fd, true, "fact"});
    graphs.emplace_back("PT-D-double-key", std::move(g));
  }
  return graphs;
}

/// `got`, its shards concatenated, equals the reference's single shard:
/// same metadata and schema, the same rows in the same order with GLOBAL
/// pt_row positions, and shards that tile [0, |pt_rows_used|) in order.
void ExpectMatchesReference(const ShardedApt& ref, const ShardedApt& got) {
  ASSERT_EQ(ref.shards.size(), 1u);
  const Table& ref_table = ref.shards[0].table;
  const std::vector<int32_t>& ref_pt_row = ref.shards[0].pt_row;
  EXPECT_EQ(got.pt_rows_used, ref.pt_rows_used);
  EXPECT_EQ(got.num_pt_columns, ref.num_pt_columns);
  EXPECT_EQ(got.pattern_cols, ref.pattern_cols);
  ASSERT_EQ(got.num_rows(), ref.num_rows());
  size_t global = 0;
  size_t prev_end = 0;
  for (size_t si = 0; si < got.shards.size(); ++si) {
    SCOPED_TRACE("shard " + std::to_string(si));
    const AptShard& shard = got.shards[si];
    EXPECT_EQ(shard.pt_begin, prev_end);
    EXPECT_LE(shard.pt_end, ref.pt_rows_used.size());
    prev_end = shard.pt_end;
    ASSERT_EQ(shard.table.num_rows(), shard.pt_row.size());
    ASSERT_EQ(shard.table.num_columns(), ref_table.num_columns());
    for (size_t c = 0; c < ref_table.num_columns(); ++c) {
      const ColumnDef& a = ref_table.schema().column(c);
      const ColumnDef& b = shard.table.schema().column(c);
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.mining_excluded, b.mining_excluded);
    }
    for (size_t r = 0; r < shard.table.num_rows(); ++r, ++global) {
      ASSERT_LT(global, ref.num_rows());
      EXPECT_EQ(shard.pt_row[r], ref_pt_row[global]);
      for (size_t c = 0; c < ref_table.num_columns(); ++c) {
        const Value a = ref_table.GetValue(global, c);
        const Value b = shard.table.GetValue(r, c);
        ASSERT_TRUE(a == b) << "shard " << si << " row " << r << " col " << c
                            << ": " << a.ToString() << " vs " << b.ToString();
      }
    }
  }
  EXPECT_EQ(prev_end, ref.pt_rows_used.size());
  EXPECT_EQ(global, ref.num_rows());
}

/// Every STRING column of every shard reads the dictionary object of shard
/// 0's column, and shard 0's PT columns read `pt`'s: shards share their
/// source column's dictionary rather than copying it.
void ExpectShardsShareDictionaries(const ProvenanceTable& pt,
                                   const ShardedApt& apt) {
  const Table& first = apt.shards.front().table;
  for (size_t c = 0; c < first.num_columns(); ++c) {
    const Column& col0 = first.column(c);
    if (col0.type() != DataType::kString || col0.dict_size() == 0) continue;
    if (c < apt.num_pt_columns) {
      EXPECT_EQ(&col0.DictEntry(0), &pt.table.column(c).DictEntry(0))
          << "col " << c;
    }
    for (const AptShard& shard : apt.shards) {
      const Column& col = shard.table.column(c);
      ASSERT_EQ(col.dict_size(), col0.dict_size()) << "col " << c;
      EXPECT_EQ(&col.DictEntry(0), &col0.DictEntry(0)) << "col " << c;
    }
  }
}

/// Both succeed with equal APTs, or both fail with the same Status (code
/// and message).
void ExpectSameOutcome(const Result<ShardedApt>& ref,
                       const Result<ShardedApt>& got) {
  ASSERT_EQ(ref.ok(), got.ok())
      << (ref.ok() ? got.status() : ref.status()).ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().code(), got.status().code());
    EXPECT_EQ(ref.status().message(), got.status().message());
    return;
  }
  ExpectMatchesReference(*ref, *got);
}

/// Runs one graph through the reference and every cache configuration of
/// a one-shard materialization, expecting identical APTs (or errors).
void DiffOneGraph(const DiffFixture& fx, const std::string& label,
                  const JoinGraph& graph, size_t row_limit,
                  AptIndexCache* index_cache, AptPrefixCache* prefix_cache,
                  StatsCatalog* stats) {
  SCOPED_TRACE(label);
  Result<ShardedApt> ref = ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph,
                                                   fx.sg, fx.db, row_limit);

  struct Variant {
    const char* name;
    AptMaterializeOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"bare", {}});
  variants.back().options.row_limit = row_limit;
  variants.push_back({"index-cache", {}});
  variants.back().options.index_cache = index_cache;
  variants.back().options.row_limit = row_limit;
  variants.push_back({"index+stats", {}});
  variants.back().options.index_cache = index_cache;
  variants.back().options.stats = stats;
  variants.back().options.row_limit = row_limit;
  variants.push_back({"index+stats+prefix", {}});
  variants.back().options.index_cache = index_cache;
  variants.back().options.stats = stats;
  variants.back().options.prefix_cache = prefix_cache;
  variants.back().options.row_limit = row_limit;

  for (auto& v : variants) {
    SCOPED_TRACE(v.name);
    ExpectSameOutcome(ref, MaterializeAptSharded(fx.pt, fx.pt_rows, graph,
                                                 fx.sg, fx.db, v.options,
                                                 /*shard_rows=*/0));
  }
}

void DiffFamily(const DiffFixture& fx, size_t row_limit = 0) {
  AptIndexCache index_cache;
  AptPrefixCache prefix_cache;
  StatsCatalog stats;
  for (const auto& [label, graph] : MakeGraphFamily(fx)) {
    DiffOneGraph(fx, label, graph, row_limit, &index_cache, &prefix_cache,
                 &stats);
  }
}

// ---- Differential sweeps ----------------------------------------------------

TEST(AptDiffTest, GraphFamilyMatchesReference) {
  DiffFixture fx = MakeFixture({});
  DiffFamily(fx);
}

TEST(AptDiffTest, RandomizedSweep) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FixtureParams p;
    p.seed = seed;
    Rng rng(seed * 77);
    p.fact_rows = 60 + rng.NextBounded(120);
    p.dim_rows = 20 + rng.NextBounded(80);
    p.null_rate = 0.1 + 0.5 * rng.UniformDouble();
    p.key_range = 4 + static_cast<int64_t>(rng.NextBounded(24));
    p.j_range = 3 + static_cast<int64_t>(rng.NextBounded(10));
    // Alternate small and huge key bases: the latter exercises the packed
    // key's unsigned offset arithmetic far beyond 2^53.
    p.key_base = (seed % 2 == 0) ? 0 : (int64_t{1} << 61) + 12345;
    DiffFamily(MakeFixture(p));
  }
}

TEST(AptDiffTest, RowLimitAbortsIdentically) {
  DiffFixture fx = MakeFixture({});
  // A limit low enough that multi-edge graphs trip it and high enough that
  // some graphs survive — both sides must agree graph by graph.
  DiffFamily(fx, /*row_limit=*/40);
}

TEST(AptDiffTest, AllNullBuildKeysProduceEmptyApt) {
  FixtureParams p;
  p.dima_keys_all_null = true;
  p.null_rate = 0.0;  // every fact.k non-null: only NULL=NULL could match
  DiffFixture fx = MakeFixture(p);
  auto family = MakeGraphFamily(fx);
  const JoinGraph& pt_a = family[1].second;
  Result<ShardedApt> got = MaterializeAptSharded(
      fx.pt, fx.pt_rows, pt_a, fx.sg, fx.db, AptMaterializeOptions{}, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_rows(), 0u)
      << "NULL build keys must never match (including NULL = NULL)";
}

// ---- NULL-never-matches pins ------------------------------------------------

TEST(AptNullSemanticsTest, NullNeverSurvivesTreeOrCycleEdges) {
  DiffFixture fx;
  Table fact("fact", Schema({{"g", DataType::kString},
                             {"k", DataType::kInt64},
                             {"s", DataType::kString},
                             {"val", DataType::kDouble}}));
  (void)fact.AppendRow({Value("x"), Value(int64_t{1}), Value::Null(), Value(1.0)});
  (void)fact.AppendRow({Value("x"), Value::Null(), Value::Null(), Value(2.0)});
  (void)fact.AppendRow({Value("y"), Value(int64_t{1}), Value("a"), Value(3.0)});
  (void)fact.AppendRow({Value("y"), Value::Null(), Value("b"), Value(4.0)});
  AddTable(&fx.db, "fact", std::move(fact));

  Table dima("dima", Schema({{"ak", DataType::kInt64},
                             {"as", DataType::kString}}));
  (void)dima.AppendRow({Value(int64_t{1}), Value::Null()});
  (void)dima.AppendRow({Value::Null(), Value::Null()});
  (void)dima.AppendRow({Value(int64_t{1}), Value("a")});
  AddTable(&fx.db, "dima", std::move(dima));

  JoinConditionDef ka;
  ka.pairs = {{"k", "ak"}};
  JoinConditionDef ka_sa;
  ka_sa.pairs = {{"k", "ak"}, {"s", "as"}};
  ASSERT_TRUE(fx.sg.AddCondition("fact", "dima", ka).ok());
  ASSERT_TRUE(fx.sg.AddCondition("fact", "dima", ka_sa).ok());

  auto query =
      ParseQuery("SELECT g, count(*) AS n FROM fact GROUP BY g").ValueOrDie();
  fx.pt = ComputeProvenance(fx.db, query).ValueOrDie();
  for (const auto& rows : fx.pt.output_to_pt_rows) {
    for (int64_t r : rows) fx.pt_rows.push_back(r);
  }
  std::sort(fx.pt_rows.begin(), fx.pt_rows.end());

  // Tree edge on k = ak: NULL k rows (2 of 4) and the NULL ak build row
  // contribute nothing; the two k=1 fact rows match the two ak=1 dima rows.
  JoinGraph tree = JoinGraph::PtOnly();
  int a = tree.AddNode("dima");
  tree.AddEdge({0, a, 0, 0, true, "fact"});
  for (bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "prefix cache" : "no cache");
    AptPrefixCache prefix_cache;
    AptMaterializeOptions options;
    if (with_cache) options.prefix_cache = &prefix_cache;
    ShardedApt apt =
        MaterializeAptSharded(fx.pt, fx.pt_rows, tree, fx.sg, fx.db, options, 0)
            .ValueOrDie();
    EXPECT_EQ(apt.num_rows(), 4u);

    // Close the parallel composite edge (k = ak AND s = as) as a cycle
    // filter: the fact row with s NULL must drop against BOTH dima rows —
    // the as=NULL one (NULL = NULL) and the as="a" one — leaving only the
    // (s="a", as="a") pairing.
    JoinGraph cycle = tree;
    cycle.AddEdge({0, a, 0, 1, true, "fact"});
    ShardedApt closed =
        MaterializeAptSharded(fx.pt, fx.pt_rows, cycle, fx.sg, fx.db, options,
                              0)
            .ValueOrDie();
    ASSERT_EQ(closed.shards.size(), 1u);
    const Table& closed_table = closed.shards[0].table;
    EXPECT_EQ(closed.num_rows(), 1u);
    int s_col = closed_table.schema().FindColumn("prov_fact_s");
    int as_col = closed_table.schema().FindColumn("dima.as");
    ASSERT_GE(s_col, 0);
    ASSERT_GE(as_col, 0);
    for (size_t r = 0; r < closed.num_rows(); ++r) {
      EXPECT_FALSE(closed_table.column(s_col).IsNull(r));
      EXPECT_FALSE(closed_table.column(as_col).IsNull(r));
    }

    // The oracle agrees cell for cell.
    ExpectMatchesReference(
        ReferenceMaterializeApt(fx.pt, fx.pt_rows, tree, fx.sg, fx.db)
            .ValueOrDie(),
        apt);
    ExpectMatchesReference(
        ReferenceMaterializeApt(fx.pt, fx.pt_rows, cycle, fx.sg, fx.db)
            .ValueOrDie(),
        closed);
  }
}

// ---- Prefix cache behavior --------------------------------------------------

TEST(AptPrefixSharingTest, SiblingGraphsHitTheSharedPrefixOnce) {
  DiffFixture fx = MakeFixture({});
  auto family = MakeGraphFamily(fx);
  const JoinGraph& pt_a_b = family[3].second;
  const JoinGraph& pt_a_c = family[4].second;

  AptIndexCache index_cache;
  AptPrefixCache prefix_cache;
  StatsCatalog stats;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.prefix_cache = &prefix_cache;
  options.stats = &stats;

  // First sibling builds the base state and the shared PT-A state.
  ShardedApt apt_b =
      MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db, options, 0)
          .ValueOrDie();
  EXPECT_EQ(prefix_cache.builds(), 2u);
  EXPECT_EQ(prefix_cache.hits(), 0u);

  // The sibling hits both shared states exactly once and builds nothing.
  ShardedApt apt_c =
      MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_c, fx.sg, fx.db, options, 0)
          .ValueOrDie();
  EXPECT_EQ(prefix_cache.builds(), 2u);
  EXPECT_EQ(prefix_cache.hits(), 2u);
  EXPECT_EQ(prefix_cache.evictions(), 0u);
  EXPECT_GT(prefix_cache.bytes_in_use(), 0u);

  // Cached-prefix results are bit-identical to the oracle.
  ExpectMatchesReference(
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db)
          .ValueOrDie(),
      apt_b);
  ExpectMatchesReference(
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a_c, fx.sg, fx.db)
          .ValueOrDie(),
      apt_c);
}

TEST(AptPrefixSharingTest, SignaturesDistinguishRepeatedRelationLabels) {
  // Two graphs whose leading step agrees on (node indexes, relation,
  // condition) but not on the joined node's LABEL: graph 1 carries a second
  // dima occurrence below the joined node, so its node 2 is "dima#2" and
  // its columns are "dima#2.*"; graph 2's node 2 is plain "dima". A prefix
  // signature keyed on the relation alone would alias their states.
  DiffFixture fx = MakeFixture({});

  JoinGraph g1 = JoinGraph::PtOnly();
  int g1_n1 = g1.AddNode("dima");  // label "dima", joined second
  int g1_n2 = g1.AddNode("dima");  // label "dima#2", joined first
  g1.AddEdge({0, g1_n2, fx.e_fact_dima, fx.c_ka, true, "fact"});
  g1.AddEdge({0, g1_n1, fx.e_fact_dima, fx.c_ka, true, "fact"});

  JoinGraph g2 = JoinGraph::PtOnly();
  int g2_n1 = g2.AddNode("dimb");  // different relation below...
  int g2_n2 = g2.AddNode("dima");  // ...so node 2's label is plain "dima"
  g2.AddEdge({0, g2_n2, fx.e_fact_dima, fx.c_ka, true, "fact"});
  g2.AddEdge({0, g2_n1, fx.e_fact_dimb, fx.c_fb, true, "fact"});

  AptPrefixCache prefix_cache;
  AptMaterializeOptions options;
  options.prefix_cache = &prefix_cache;
  for (const auto& [label, graph] :
       {std::pair<const char*, const JoinGraph*>{"repeated-dima", &g1},
        std::pair<const char*, const JoinGraph*>{"plain-dima", &g2}}) {
    SCOPED_TRACE(label);
    ExpectSameOutcome(
        ReferenceMaterializeApt(fx.pt, fx.pt_rows, *graph, fx.sg, fx.db),
        MaterializeAptSharded(fx.pt, fx.pt_rows, *graph, fx.sg, fx.db, options,
                              0));
  }
}

TEST(AptPrefixSharingTest, DifferentQueriesNeverAliasCachedStates) {
  // Two queries over one table whose provenance tables agree on everything
  // the cache key's SHAPE component sees — schema, relations, group-bys,
  // row count, selected row ids — but hold different rows. The prefix
  // cache outlives Explain calls, so without the PT content fingerprint in
  // the key the second query would silently mine the first query's data.
  DiffFixture fx;
  Table fact("fact", Schema({{"g", DataType::kString},
                             {"k", DataType::kInt64},
                             {"sel", DataType::kInt64}}));
  (void)fact.AppendRow({Value("x"), Value(int64_t{1}), Value(int64_t{1})});
  (void)fact.AppendRow({Value("y"), Value(int64_t{2}), Value(int64_t{1})});
  (void)fact.AppendRow({Value("x"), Value(int64_t{3}), Value(int64_t{2})});
  (void)fact.AppendRow({Value("y"), Value(int64_t{4}), Value(int64_t{2})});
  AddTable(&fx.db, "fact", std::move(fact));
  Table dima("dima", Schema({{"ak", DataType::kInt64},
                             {"av", DataType::kString}}));
  for (int64_t i = 1; i <= 4; ++i) {
    (void)dima.AppendRow({Value(i), Value("v" + std::to_string(i))});
  }
  AddTable(&fx.db, "dima", std::move(dima));
  JoinConditionDef ka;
  ka.pairs = {{"k", "ak"}};
  ASSERT_TRUE(fx.sg.AddCondition("fact", "dima", ka).ok());

  JoinGraph graph = JoinGraph::PtOnly();
  int a = graph.AddNode("dima");
  graph.AddEdge({0, a, 0, 0, true, "fact"});

  AptPrefixCache prefix_cache;
  AptMaterializeOptions options;
  options.prefix_cache = &prefix_cache;
  for (int sel = 1; sel <= 2; ++sel) {
    SCOPED_TRACE("sel=" + std::to_string(sel));
    auto query = ParseQuery("SELECT g, count(*) AS n FROM fact WHERE sel = " +
                            std::to_string(sel) + " GROUP BY g")
                     .ValueOrDie();
    ProvenanceTable pt = ComputeProvenance(fx.db, query).ValueOrDie();
    std::vector<int64_t> rows;
    for (const auto& part : pt.output_to_pt_rows) {
      for (int64_t r : part) rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end());
    ASSERT_EQ(rows.size(), 2u);  // both PTs select positional rows {0, 1}
    ExpectSameOutcome(
        ReferenceMaterializeApt(pt, rows, graph, fx.sg, fx.db),
        MaterializeAptSharded(pt, rows, graph, fx.sg, fx.db, options, 0));
  }
}

TEST(AptPrefixSharingTest, MemoryBoundIsRespectedUnderMaterialization) {
  DiffFixture fx = MakeFixture({});
  auto family = MakeGraphFamily(fx);

  // A bound too small for any state: every insert is evicted immediately,
  // results stay correct, and accounting never exceeds the bound.
  AptIndexCache index_cache;
  AptPrefixCache prefix_cache(/*max_bytes=*/64);
  StatsCatalog stats;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.prefix_cache = &prefix_cache;
  options.stats = &stats;

  for (const auto& [label, graph] : MakeGraphFamily(fx)) {
    SCOPED_TRACE(label);
    ExpectSameOutcome(
        ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, fx.sg, fx.db),
        MaterializeAptSharded(fx.pt, fx.pt_rows, graph, fx.sg, fx.db, options,
                              0));
    EXPECT_LE(prefix_cache.bytes_in_use(), prefix_cache.max_bytes());
  }
  EXPECT_GT(prefix_cache.evictions(), 0u);
  EXPECT_EQ(prefix_cache.hits(), 0u);  // nothing survives to be hit
}

TEST(AptPrefixSharingTest, ContextWriteReKeysCachedStates) {
  // PT-A-B caches its PT-A states. Rows appended to dima, which the query
  // does not read, leave the PT fingerprint as it was, so only dima's
  // content version in the key keeps the old PT-A states from being served
  // to the same graph, through the same caches, after the write.
  DiffFixture fx = MakeFixture({});
  const JoinGraph pt_a_b = MakeGraphFamily(fx)[3].second;
  AptIndexCache index_cache;
  AptPrefixCache prefix_cache;
  AptMaterializeOptions options;
  options.index_cache = &index_cache;
  options.prefix_cache = &prefix_cache;
  const std::vector<size_t> shard_sizes = {0, 7};
  for (size_t shard_rows : shard_sizes) {
    ASSERT_TRUE(MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db,
                                      options, shard_rows)
                    .ok());
  }
  TablePtr dima = fx.db.GetTable("dima").ValueOrDie();
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(dima->AppendRow({Value(i), Value(i % 3), Value("s1"),
                                 Value("n9")})
                    .ok());
  }
  const size_t hits_before = prefix_cache.hits();
  const Result<ShardedApt> ref =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db);
  for (size_t shard_rows : shard_sizes) {
    SCOPED_TRACE("shard_rows=" + std::to_string(shard_rows));
    ExpectSameOutcome(ref, MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_b,
                                                 fx.sg, fx.db, options,
                                                 shard_rows));
  }
  // The initial states do not read dima and are still shared.
  EXPECT_GT(prefix_cache.hits(), hits_before);
}

// ---- Sharded materialization differential ----------------------------------

/// Shard sizes that pin the boundary math: 0 (one full-range shard), 1, the
/// word boundary 63/64/65, a random non-divisor of |pt_rows|, and one past
/// the whole range (also a single shard).
std::vector<size_t> ShardSizeSweep(size_t n, Rng* rng) {
  std::vector<size_t> sizes = {0, 1, 63, 64, 65};
  size_t nd = 2 + rng->NextBounded(n > 4 ? n - 3 : 2);
  while (n % nd == 0) ++nd;  // force a ragged final shard
  sizes.push_back(nd);
  sizes.push_back(n + 1 + rng->NextBounded(16));
  return sizes;
}

TEST(AptShardDiffTest, ShardSweepMatchesReferenceAtAnyThreadCount) {
  DiffFixture fx = MakeFixture({});
  const size_t n = fx.pt_rows.size();
  Rng rng(99);
  std::vector<size_t> sizes = ShardSizeSweep(n, &rng);
  for (int threads : {1, 4, 8}) {
    std::unique_ptr<WorkerPool> pool;
    if (threads > 1) pool = std::make_unique<WorkerPool>(threads);
    for (bool with_prefix : {false, true}) {
      AptIndexCache index_cache;
      AptPrefixCache prefix_cache;
      StatsCatalog stats;
      for (const auto& [label, graph] : MakeGraphFamily(fx)) {
        Result<ShardedApt> ref =
            ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, fx.sg, fx.db);
        for (size_t shard_rows : sizes) {
          SCOPED_TRACE(label + " shard_rows=" + std::to_string(shard_rows) +
                       " threads=" + std::to_string(threads) +
                       (with_prefix ? " prefix=on" : " prefix=off"));
          AptMaterializeOptions options;
          options.index_cache = &index_cache;
          options.stats = &stats;
          if (with_prefix) options.prefix_cache = &prefix_cache;
          options.pool = pool.get();
          AptMaterializeMetrics metrics;
          options.metrics = &metrics;
          Result<ShardedApt> got = MaterializeAptSharded(
              fx.pt, fx.pt_rows, graph, fx.sg, fx.db, options, shard_rows);
          ExpectSameOutcome(ref, got);
          if (!got.ok()) continue;
          size_t expect_shards = shard_rows == 0 || shard_rows >= n
                                     ? 1
                                     : (n + shard_rows - 1) / shard_rows;
          EXPECT_EQ(got->shards.size(), expect_shards);
          EXPECT_EQ(metrics.shards.load(), expect_shards);
          EXPECT_GT(metrics.peak_state_bytes.load(), 0u);
          ExpectShardsShareDictionaries(fx.pt, *got);
        }
      }
    }
  }
}

TEST(AptShardDiffTest, RandomizedShardBoundariesMatchReference) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FixtureParams p;
    p.seed = seed;
    Rng rng(seed * 131);
    p.fact_rows = 60 + rng.NextBounded(120);
    p.dim_rows = 20 + rng.NextBounded(80);
    p.null_rate = 0.1 + 0.5 * rng.UniformDouble();
    DiffFixture fx = MakeFixture(p);
    WorkerPool pool(4);
    AptIndexCache index_cache;
    AptPrefixCache prefix_cache;
    StatsCatalog stats;
    AptMaterializeOptions options;
    options.index_cache = &index_cache;
    options.prefix_cache = &prefix_cache;
    options.stats = &stats;
    options.pool = &pool;
    for (const auto& [label, graph] : MakeGraphFamily(fx)) {
      Result<ShardedApt> ref =
          ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, fx.sg, fx.db);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (int rep = 0; rep < 3; ++rep) {
        size_t shard_rows = 1 + rng.NextBounded(fx.pt_rows.size() + 8);
        SCOPED_TRACE(label + " shard_rows=" + std::to_string(shard_rows));
        Result<ShardedApt> got = MaterializeAptSharded(
            fx.pt, fx.pt_rows, graph, fx.sg, fx.db, options, shard_rows);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectMatchesReference(*ref, *got);
      }
    }
  }
}

TEST(AptShardDiffTest, RowLimitErrorsIdenticalToReference) {
  DiffFixture fx = MakeFixture({});
  // Low enough that multi-edge graphs trip it: every shard size, thread
  // count and prefix-cache mode must surface the reference's Status — code
  // AND message — even though per-shard step totals trip the cumulative
  // limit at schedule-dependent points.
  const size_t row_limit = 40;
  Rng rng(7);
  std::vector<size_t> sizes = ShardSizeSweep(fx.pt_rows.size(), &rng);
  for (int threads : {1, 4, 8}) {
    std::unique_ptr<WorkerPool> pool;
    if (threads > 1) pool = std::make_unique<WorkerPool>(threads);
    for (bool with_prefix : {false, true}) {
      AptPrefixCache prefix_cache;
      for (const auto& [label, graph] : MakeGraphFamily(fx)) {
        Result<ShardedApt> ref = ReferenceMaterializeApt(
            fx.pt, fx.pt_rows, graph, fx.sg, fx.db, row_limit);
        for (size_t shard_rows : sizes) {
          SCOPED_TRACE(label + " shard_rows=" + std::to_string(shard_rows) +
                       " threads=" + std::to_string(threads) +
                       (with_prefix ? " prefix=on" : " prefix=off"));
          AptMaterializeOptions options;
          options.row_limit = row_limit;
          options.pool = pool.get();
          if (with_prefix) options.prefix_cache = &prefix_cache;
          for (int rep = 0; rep < (threads > 1 ? 3 : 1); ++rep) {
            ExpectSameOutcome(
                ref, MaterializeAptSharded(fx.pt, fx.pt_rows, graph, fx.sg,
                                           fx.db, options, shard_rows));
          }
        }
      }
    }
  }
}

TEST(AptShardDiffTest, RowLimitTripOutranksALaterBindError) {
  // PT-A-B over a schema graph whose dima-dimb condition names an attribute
  // dimb lacks. The reference trips the row limit at the first step, before
  // it meets the bad name, so a sharded call must report that trip even
  // when every shard stays under the limit and only the cross-shard total
  // passes it, whichever shard reaches the second step first.
  DiffFixture fx = MakeFixture({});
  SchemaGraph sg;
  JoinConditionDef ka;
  ka.pairs = {{"k", "ak"}};
  JoinConditionDef bad;
  bad.pairs = {{"aj", "missing_b"}};
  ASSERT_TRUE(sg.AddCondition("fact", "dima", ka).ok());
  ASSERT_TRUE(sg.AddCondition("dima", "dimb", bad).ok());
  JoinGraph pt_a = JoinGraph::PtOnly();
  const int a = pt_a.AddNode("dima");
  pt_a.AddEdge({0, a, 0, 0, true, "fact"});
  JoinGraph graph = pt_a;
  const int b = graph.AddNode("dimb");
  graph.AddEdge({a, b, 1, 0, true, ""});

  const size_t first_step_rows =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a, sg, fx.db)
          .ValueOrDie()
          .num_rows();
  const size_t row_limit = first_step_rows - 1;
  const Result<ShardedApt> ref =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, sg, fx.db, row_limit);
  ASSERT_EQ(ref.status().code(), StatusCode::kOutOfRange);
  const Result<ShardedApt> ref_unlimited =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, sg, fx.db);
  ASSERT_EQ(ref_unlimited.status().code(), StatusCode::kBindError);

  const size_t n = fx.pt_rows.size();
  Rng rng(11);
  std::vector<size_t> sizes = ShardSizeSweep(n, &rng);
  sizes.push_back(n / 2);
  for (size_t shard_rows : sizes) {
    if (shard_rows == 0 || shard_rows >= n) continue;
    // Several shards, each under the limit on its own.
    const ShardedApt first = MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a, sg,
                                                   fx.db, {}, shard_rows)
                                 .ValueOrDie();
    for (const AptShard& shard : first.shards) {
      ASSERT_LE(shard.num_rows(), row_limit) << "shard_rows=" << shard_rows;
    }
  }
  for (int threads : {1, 4, 8}) {
    std::unique_ptr<WorkerPool> pool;
    if (threads > 1) pool = std::make_unique<WorkerPool>(threads);
    for (bool with_prefix : {false, true}) {
      AptPrefixCache prefix_cache;
      for (size_t shard_rows : sizes) {
        SCOPED_TRACE("shard_rows=" + std::to_string(shard_rows) +
                     " threads=" + std::to_string(threads) +
                     (with_prefix ? " prefix=on" : " prefix=off"));
        AptMaterializeOptions options;
        options.pool = pool.get();
        if (with_prefix) options.prefix_cache = &prefix_cache;
        ExpectSameOutcome(ref_unlimited,
                          MaterializeAptSharded(fx.pt, fx.pt_rows, graph, sg,
                                                fx.db, options, shard_rows));
        options.row_limit = row_limit;
        for (int rep = 0; rep < (threads > 1 ? 3 : 1); ++rep) {
          ExpectSameOutcome(ref, MaterializeAptSharded(fx.pt, fx.pt_rows, graph,
                                                       sg, fx.db, options,
                                                       shard_rows));
        }
      }
    }
  }
}

TEST(AptShardDiffTest, OneShardRowLimitTripFailsInOnePass) {
  // A single shard runs serially, so its first error is already the serial
  // one: a trip at the last step must not re-run the materialization. The
  // index cache counts lookups — one per tree step per pass.
  DiffFixture fx = MakeFixture({});
  auto family = MakeGraphFamily(fx);
  const JoinGraph& pt_a = family[1].second;
  const JoinGraph& pt_a_b = family[3].second;  // two tree steps
  const size_t first_step_rows =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a, fx.sg, fx.db)
          .ValueOrDie()
          .num_rows();
  const size_t last_step_rows =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db)
          .ValueOrDie()
          .num_rows();
  ASSERT_LT(first_step_rows, last_step_rows);  // only the last step trips
  const size_t row_limit = last_step_rows - 1;
  auto lookups = [](const AptIndexCache& c) { return c.hits() + c.num_builds(); };

  AptIndexCache ok_cache;
  AptMaterializeOptions options;
  options.index_cache = &ok_cache;
  ASSERT_TRUE(MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_b, fx.sg, fx.db,
                                    options, 0)
                  .ok());
  Result<ShardedApt> ref = ReferenceMaterializeApt(fx.pt, fx.pt_rows, pt_a_b,
                                                   fx.sg, fx.db, row_limit);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kOutOfRange);
  // Both ways of asking for one shard: 0, and a size covering every row.
  for (size_t shard_rows : {size_t{0}, fx.pt_rows.size()}) {
    SCOPED_TRACE("shard_rows=" + std::to_string(shard_rows));
    AptIndexCache cache;
    options.index_cache = &cache;
    options.row_limit = row_limit;
    ExpectSameOutcome(ref, MaterializeAptSharded(fx.pt, fx.pt_rows, pt_a_b,
                                                 fx.sg, fx.db, options,
                                                 shard_rows));
    EXPECT_EQ(lookups(cache), lookups(ok_cache));
  }
}

TEST(AptShardDiffTest, ShardingBoundsPeakStateBytes) {
  // The memory contract: every resident state is a shard-range state, so
  // the recorded high-water mark never exceeds the one-shard peak, and
  // shrinks once the APT spans several shards. Both match the reference.
  DiffFixture fx = MakeFixture({});
  auto family = MakeGraphFamily(fx);
  const JoinGraph& graph = family[3].second;  // PT-A-B, multi-step
  Result<ShardedApt> ref =
      ReferenceMaterializeApt(fx.pt, fx.pt_rows, graph, fx.sg, fx.db);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  AptMaterializeOptions options;
  AptMaterializeMetrics one_shard_metrics;
  options.metrics = &one_shard_metrics;
  ExpectSameOutcome(ref, MaterializeAptSharded(fx.pt, fx.pt_rows, graph,
                                               fx.sg, fx.db, options, 0));
  size_t one_shard_peak = one_shard_metrics.peak_state_bytes.load();
  ASSERT_GT(one_shard_peak, 0u);

  size_t quarter = (fx.pt_rows.size() + 3) / 4;  // >= 4 shards
  AptMaterializeMetrics sharded_metrics;
  options.metrics = &sharded_metrics;
  Result<ShardedApt> got = MaterializeAptSharded(fx.pt, fx.pt_rows, graph,
                                                 fx.sg, fx.db, options, quarter);
  ExpectSameOutcome(ref, got);
  ASSERT_TRUE(got.ok());
  ASSERT_GE(got->shards.size(), 4u);
  size_t sharded_peak = sharded_metrics.peak_state_bytes.load();
  EXPECT_GT(sharded_peak, 0u);
  EXPECT_LT(sharded_peak, one_shard_peak);
}

// ---- Explainer-level differential ------------------------------------------

void ExpectIdenticalExplanations(const ExplainResult& a,
                                 const ExplainResult& b) {
  ASSERT_EQ(a.explanations.size(), b.explanations.size());
  EXPECT_EQ(a.apts_mined, b.apts_mined);
  EXPECT_EQ(a.apts_truncated, b.apts_truncated);
  EXPECT_EQ(a.apts_skipped_oversize, b.apts_skipped_oversize);
  EXPECT_EQ(a.patterns_evaluated, b.patterns_evaluated);
  for (size_t i = 0; i < a.explanations.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    const Explanation& x = a.explanations[i];
    const Explanation& y = b.explanations[i];
    EXPECT_EQ(x.join_graph, y.join_graph);
    EXPECT_EQ(x.join_conditions, y.join_conditions);
    EXPECT_EQ(x.pattern, y.pattern);
    EXPECT_EQ(x.primary, y.primary);
    // Exact double equality: the guarantee is bit-identical.
    EXPECT_EQ(x.precision, y.precision);
    EXPECT_EQ(x.recall, y.recall);
    EXPECT_EQ(x.fscore, y.fscore);
    EXPECT_EQ(x.fscore_sampled, y.fscore_sampled);
    EXPECT_EQ(x.support_primary, y.support_primary);
    EXPECT_EQ(x.total_primary, y.total_primary);
    EXPECT_EQ(x.support_other, y.support_other);
    EXPECT_EQ(x.total_other, y.total_other);
  }
}

TEST(AptDiffTest, ExplainerBitIdenticalAcrossThreadsAndCacheModes) {
  DiffFixture fx = MakeFixture({});
  auto query =
      ParseQuery("SELECT g, count(*) AS n FROM fact GROUP BY g").ValueOrDie();
  UserQuestion question = UserQuestion::TwoPoint(Where({{"g", Value("x")}}),
                                                 Where({{"g", Value("y")}}));

  auto run = [&](int threads, bool prefix_cache) {
    Explainer explainer(&fx.db, &fx.sg);
    explainer.mutable_config()->num_threads = threads;
    explainer.mutable_config()->enable_apt_prefix_cache = prefix_cache;
    explainer.mutable_config()->max_join_graph_edges = 2;
    return explainer.Explain(query, question).ValueOrDie();
  };

  ExplainResult baseline = run(1, false);
  ASSERT_FALSE(baseline.explanations.empty());
  for (int threads : {1, 4, 8}) {
    for (bool cache : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " prefix_cache=" + (cache ? std::string("on") : "off"));
      ExplainResult result = run(threads, cache);
      ExpectIdenticalExplanations(baseline, result);
    }
  }
}

TEST(AptShardDiffTest, ExplainerShardedBitIdenticalAcrossThreadsAndCaches) {
  // End-to-end invariant of the sharded pipeline: explanations are
  // bit-identical to one full-range shard per graph at any shard size,
  // thread count, and prefix-cache mode. (Peak-byte counters are
  // intentionally NOT part of the comparison — they are observability, not
  // results, and vary with the schedule.)
  DiffFixture fx = MakeFixture({});
  auto query =
      ParseQuery("SELECT g, count(*) AS n FROM fact GROUP BY g").ValueOrDie();
  UserQuestion question = UserQuestion::TwoPoint(Where({{"g", Value("x")}}),
                                                 Where({{"g", Value("y")}}));

  auto run = [&](size_t shard_rows, int threads, bool prefix_cache) {
    Explainer explainer(&fx.db, &fx.sg);
    explainer.mutable_config()->apt_shard_rows = shard_rows;
    explainer.mutable_config()->num_threads = threads;
    explainer.mutable_config()->enable_apt_prefix_cache = prefix_cache;
    explainer.mutable_config()->max_join_graph_edges = 2;
    return explainer.Explain(query, question).ValueOrDie();
  };

  ExplainResult baseline = run(/*shard_rows=*/0, /*threads=*/1, false);
  ASSERT_FALSE(baseline.explanations.empty());
  EXPECT_GT(baseline.peak_apt_bytes, 0u);
  // One shard per materialized graph.
  EXPECT_GT(baseline.apt_shards, 0u);

  size_t quarter = (fx.pt_rows.size() + 3) / 4;
  for (size_t shard_rows : {size_t{1}, size_t{7}, quarter}) {
    for (int threads : {1, 4, 8}) {
      for (bool cache : {false, true}) {
        SCOPED_TRACE("shard_rows=" + std::to_string(shard_rows) +
                     " threads=" + std::to_string(threads) +
                     " prefix_cache=" + (cache ? std::string("on") : "off"));
        ExplainResult result = run(shard_rows, threads, cache);
        ExpectIdenticalExplanations(baseline, result);
        // More shards than graphs, and a peak no worse than one shard's
        // (every resident state covers a shard range, not the whole APT).
        EXPECT_GT(result.apt_shards, baseline.apt_shards);
        EXPECT_LE(result.peak_apt_bytes, baseline.peak_apt_bytes);
      }
    }
  }
}

// ---- Deterministic multi-failure error reporting ---------------------------

TEST(AptDiffTest, LowestIndexErrorReportedAtEveryThreadCount) {
  DiffFixture fx = MakeFixture({});
  // A schema graph whose dimb/dimc conditions name attributes those
  // relations lack: every graph using them fails materialization with
  // BindError, so several enumerated graphs fail at different indexes.
  SchemaGraph bad;
  JoinConditionDef good;
  good.pairs = {{"k", "ak"}};
  JoinConditionDef bad_b;
  bad_b.pairs = {{"k", "missing_b"}};
  JoinConditionDef bad_c;
  bad_c.pairs = {{"k", "missing_c"}};
  ASSERT_TRUE(bad.AddCondition("fact", "dima", good).ok());
  ASSERT_TRUE(bad.AddCondition("fact", "dimb", bad_b).ok());
  ASSERT_TRUE(bad.AddCondition("fact", "dimc", bad_c).ok());

  auto query =
      ParseQuery("SELECT g, count(*) AS n FROM fact GROUP BY g").ValueOrDie();
  UserQuestion question = UserQuestion::TwoPoint(Where({{"g", Value("x")}}),
                                                 Where({{"g", Value("y")}}));

  auto run = [&](int threads) {
    Explainer explainer(&fx.db, &bad);
    explainer.mutable_config()->num_threads = threads;
    explainer.mutable_config()->enable_cost_pruning = false;
    explainer.mutable_config()->max_join_graph_edges = 2;
    auto result = explainer.Explain(query, question);
    EXPECT_FALSE(result.ok());
    return result.status();
  };

  Status serial = run(1);
  EXPECT_EQ(serial.code(), StatusCode::kBindError);
  // Several repetitions per thread count: with multiple failing graphs the
  // old code's report depended on which failure tripped the abort flag
  // first.
  for (int threads : {4, 8}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rep=" + std::to_string(rep));
      Status parallel = run(threads);
      EXPECT_EQ(serial.code(), parallel.code());
      EXPECT_EQ(serial.message(), parallel.message());
    }
  }
}

}  // namespace
}  // namespace cajade
