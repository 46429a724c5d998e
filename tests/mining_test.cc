// Tests for src/mining: patterns (matching, refinement), quality metrics
// (Definition 7), LCA candidate generation (against an all-pairs meet
// oracle), the miner (Algorithm 1) — including its ranking against the
// first implementation and its refinement across shard sizes, samples and
// budgets — and the recall-monotonicity property (Proposition 3.1) as a
// parameterized property sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "src/core/config.h"
#include "src/mining/lca.h"
#include "src/mining/miner.h"
#include "src/mining/quality.h"
#include "tests/apt_test_util.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

/// A small synthetic APT: 40 PT rows (first 24 class 0, rest class 1), two
/// APT rows per PT row, as one shard. Columns: cat (string), num (int64).
struct AptFixture {
  ShardedApt apt;
  PtClasses classes;

  AptFixture() {
    Schema schema({{"cat", DataType::kString}, {"num", DataType::kInt64}});
    Table t("APT", std::move(schema));
    std::vector<int32_t> pt_row;
    Rng rng(13);
    for (int p = 0; p < 40; ++p) {
      bool class0 = p < 24;
      for (int copy = 0; copy < 2; ++copy) {
        // Class 0 rows skew to cat="a" & num>=50; class 1 to "b" & low num.
        std::string cat = (class0 ? rng.Bernoulli(0.8) : rng.Bernoulli(0.25))
                              ? "a"
                              : "b";
        int64_t num = class0 ? rng.UniformInt(40, 100) : rng.UniformInt(0, 60);
        (void)t.AppendRow({Value(cat), Value(num)});
        pt_row.push_back(p);
      }
      classes.push_back(class0 ? 0 : 1);
    }
    apt = OneShardApt(std::move(t), std::move(pt_row), 40, {0, 1});
  }

  const Table& table() const { return apt.schema_table(); }
  const std::vector<int32_t>& pt_row() const { return apt.shards[0].pt_row; }
};

TEST(PatternTest, MatchingSemantics) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("a")));
  p.preds.push_back(PatternPredicate::Make(fx.table(), 1, PredOp::kGe,
                                           Value(int64_t{50})));
  size_t matches = 0;
  for (size_t r = 0; r < fx.apt.num_rows(); ++r) {
    bool expected = fx.table().GetValue(r, 0) == Value("a") &&
                    fx.table().GetValue(r, 1).AsInt() >= 50;
    EXPECT_EQ(p.Matches(fx.table(), r), expected);
    matches += expected;
  }
  EXPECT_GT(matches, 0u);
}

TEST(PatternTest, UnknownDictValueNeverMatches) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("zz")));
  for (size_t r = 0; r < std::min<size_t>(fx.apt.num_rows(), 10); ++r) {
    EXPECT_FALSE(p.Matches(fx.table(), r));
  }
}

TEST(PatternTest, RefineKeepsSortedAndFind) {
  AptFixture fx;
  Pattern p;
  p = p.Refine(PatternPredicate::Make(fx.table(), 1, PredOp::kLe,
                                      Value(int64_t{70})));
  p = p.Refine(PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("a")));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.preds[0].col, 0);
  EXPECT_EQ(p.preds[1].col, 1);
  EXPECT_NE(p.Find(1), nullptr);
}

TEST(PatternTest, KeyAndDescribeStable) {
  AptFixture fx;
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("a")));
  EXPECT_EQ(p.Key(), "0=a");
  EXPECT_EQ(p.Describe(fx.table()), "cat=a");
  Pattern empty;
  EXPECT_EQ(empty.Describe(fx.table()), "(*)");
}

TEST(QualityTest, FullViewCountsClasses) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  EXPECT_EQ(view.n1, 24u);
  EXPECT_EQ(view.n2, 16u);
  EXPECT_TRUE(view.all_rows);
}

TEST(QualityTest, EmptyPatternScoresAsAllCovered) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern empty;
  PatternScores s = ScorePattern(empty, fx.apt, fx.classes, view, 0);
  EXPECT_EQ(s.tp, 24);
  EXPECT_EQ(s.fp, 16);
  EXPECT_EQ(s.fn, 0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_NEAR(s.precision, 0.6, 1e-9);
}

TEST(QualityTest, CoverageIsExistentialOverAptRows) {
  // A pattern matching only one of a PT row's two APT rows still covers it.
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("a")));
  std::vector<uint8_t> covered;
  ComputeCoverage(p, fx.apt, view, &covered);
  for (size_t pt = 0; pt < covered.size(); ++pt) {
    bool any = false;
    for (size_t r = 0; r < fx.apt.num_rows(); ++r) {
      if (fx.pt_row()[r] == static_cast<int32_t>(pt) &&
          p.Matches(fx.table(), r)) {
        any = true;
      }
    }
    EXPECT_EQ(covered[pt] != 0, any);
  }
}

TEST(QualityTest, PrimarySwapsSides) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Pattern p;
  p.preds.push_back(
      PatternPredicate::Make(fx.table(), 0, PredOp::kEq, Value("a")));
  PatternScores s0 = ScorePattern(p, fx.apt, fx.classes, view, 0);
  PatternScores s1 = ScorePattern(p, fx.apt, fx.classes, view, 1);
  EXPECT_EQ(s0.tp, s1.fp);
  EXPECT_EQ(s0.fp, s1.tp);
}

TEST(QualityTest, SampledViewShrinksCountsButKeepsBothClasses) {
  AptFixture fx;
  Rng rng(3);
  MetricsView view = SampledView(fx.apt, fx.classes, 0.3, &rng);
  EXPECT_FALSE(view.all_rows);
  EXPECT_GT(view.n1, 0u);
  EXPECT_GT(view.n2, 0u);
  EXPECT_LT(view.n1 + view.n2, 40u);
  // APT rows restricted to sampled PT positions (one shard: the full APT).
  ASSERT_EQ(view.rows.size(), 1u);
  for (int32_t r : view.rows.front()) {
    EXPECT_TRUE(view.pt_sampled[fx.pt_row()[r]]);
  }
  EXPECT_EQ(view.sampled_rows, view.rows.front().size());
}

TEST(QualityTest, SampledViewIsShardIndependent) {
  // The PT-position sample must not depend on how the APT is sharded.
  AptFixture fx;
  Rng rng_a(3);
  MetricsView whole = SampledView(fx.apt, fx.classes, 0.3, &rng_a);
  for (size_t shard_pts : {1u, 7u, 13u, 40u, 100u}) {
    ShardedApt sa = SplitApt(fx.apt, shard_pts);
    Rng rng_b(3);
    MetricsView split = SampledView(sa, fx.classes, 0.3, &rng_b);
    EXPECT_EQ(split.pt_sampled, whole.pt_sampled) << "shard_pts=" << shard_pts;
    EXPECT_EQ(split.n1, whole.n1);
    EXPECT_EQ(split.n2, whole.n2);
    EXPECT_EQ(split.sampled_rows, whole.sampled_rows);
    // Concatenating shard row lists (offset to global ids) reproduces the
    // one-shard row list.
    std::vector<int32_t> merged;
    size_t offset = 0;
    for (size_t si = 0; si < sa.shards.size(); ++si) {
      for (int32_t r : split.rows[si]) {
        merged.push_back(static_cast<int32_t>(offset + r));
      }
      offset += sa.shards[si].num_rows();
    }
    EXPECT_EQ(merged, whole.rows.front()) << "shard_pts=" << shard_pts;
  }
}

TEST(LcaTest, CandidatesAreEqualityMeets) {
  AptFixture fx;
  Rng rng(5);
  auto candidates = GenerateLcaCandidates(fx.apt, {0}, 40, &rng);
  ASSERT_FALSE(candidates.empty());
  // Over one binary column, the only meets are cat=a and cat=b.
  EXPECT_LE(candidates.size(), 2u);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.pattern.size(), 1u);
    EXPECT_EQ(c.pattern.preds[0].op, PredOp::kEq);
    EXPECT_GT(c.pair_count, 0);
  }
  // Sorted by pair count.
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].pair_count, candidates[i].pair_count);
  }
}

TEST(LcaTest, EmptyInputsProduceNoCandidates) {
  AptFixture fx;
  Rng rng(5);
  EXPECT_TRUE(GenerateLcaCandidates(fx.apt, {}, 40, &rng).empty());
}

TEST(LcaTest, ShardedCandidatesBitIdentical) {
  AptFixture fx;
  Rng rng_a(5);
  auto whole = GenerateLcaCandidates(fx.apt, {0}, 40, &rng_a);
  for (size_t shard_pts : {1u, 7u, 13u, 40u}) {
    ShardedApt sa = SplitApt(fx.apt, shard_pts);
    Rng rng_b(5);
    auto split = GenerateLcaCandidates(sa, {0}, 40, &rng_b);
    ASSERT_EQ(split.size(), whole.size()) << "shard_pts=" << shard_pts;
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(split[i].pair_count, whole[i].pair_count);
      EXPECT_EQ(split[i].pattern.Key(), whole[i].pattern.Key());
    }
  }
}

/// The first LCA implementation, kept as the oracle: ++counts[sig] over
/// every sample pair (i, j), i < j, in (i, j) order, then the same output
/// build and pair-count sort. Its unordered_map and hash are copied too,
/// because the map's iteration order decides the order of tied candidates.
std::vector<LcaCandidate> AllPairsLca(const ShardedApt& apt,
                                      const std::vector<int>& cat_cols,
                                      size_t sample_size, Rng* rng) {
  struct SigHash {
    size_t operator()(const std::vector<int32_t>& v) const {
      size_t h = 0x3456;
      for (int32_t x : v) {
        h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };
  std::vector<size_t> sample = rng->SampleIndices(apt.num_rows(), sample_size);
  std::vector<size_t> s_shard, s_local;
  LocateAptRows(apt, sample, &s_shard, &s_local);
  const size_t s = sample.size();
  const size_t k = cat_cols.size();
  std::vector<std::vector<int32_t>> codes(k, std::vector<int32_t>(s));
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < s; ++i) {
      const Column& col = apt.shards[s_shard[i]].table.column(cat_cols[c]);
      codes[c][i] = col.IsNull(s_local[i]) ? -1 : col.GetCode(s_local[i]);
    }
  }
  std::unordered_map<std::vector<int32_t>, int64_t, SigHash> counts;
  std::vector<int32_t> sig(k);
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      bool any = false;
      for (size_t c = 0; c < k; ++c) {
        const int32_t a = codes[c][i];
        sig[c] = a >= 0 && a == codes[c][j] ? a : -1;
        any |= sig[c] >= 0;
      }
      if (any) ++counts[sig];
    }
  }
  std::vector<LcaCandidate> out;
  for (const auto& [signature, count] : counts) {
    LcaCandidate cand;
    cand.pair_count = count;
    for (size_t c = 0; c < k; ++c) {
      if (signature[c] < 0) continue;
      const Column& col = apt.schema_table().column(cat_cols[c]);
      cand.pattern.preds.push_back(PatternPredicate::Make(
          apt.schema_table(), cat_cols[c], PredOp::kEq,
          Value(col.DictEntry(signature[c]))));
    }
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(),
            [](const LcaCandidate& a, const LcaCandidate& b) {
              return a.pair_count > b.pair_count;
            });
  return out;
}

/// A random APT of `k` string columns, one row per PT position. Rows are
/// copies of a few NULL-bearing template rows (duplicate-heavy) or cells
/// drawn independently with 40% NULLs (NULL-heavy).
ShardedApt RandomCategoricalApt(size_t k, bool duplicate_heavy,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnDef> defs;
  std::vector<int> cols;
  for (size_t c = 0; c < k; ++c) {
    defs.push_back({"c" + std::to_string(c), DataType::kString});
    cols.push_back(static_cast<int>(c));
  }
  Table t("APT", Schema(std::move(defs)));
  static const char* kWords[] = {"a", "b", "c", "d"};
  auto random_row = [&](double null_rate) {
    std::vector<Value> row;
    for (size_t c = 0; c < k; ++c) {
      row.push_back(rng.Bernoulli(null_rate)
                        ? Value::Null()
                        : Value(kWords[rng.NextBounded(3)]));
    }
    return row;
  };
  std::vector<std::vector<Value>> templates;
  for (int i = 0; i < 9; ++i) templates.push_back(random_row(0.3));
  const size_t n = 60 + rng.NextBounded(40);
  std::vector<int32_t> pt_row;
  for (size_t p = 0; p < n; ++p) {
    (void)t.AppendRow(duplicate_heavy
                          ? templates[rng.NextBounded(templates.size())]
                          : random_row(0.4));
    pt_row.push_back(static_cast<int32_t>(p));
  }
  return OneShardApt(std::move(t), std::move(pt_row), n, std::move(cols));
}

TEST(LcaTest, MatchesAllPairsOracle) {
  // Pins the candidates, their counts and the order of tied candidates.
  // k = 65 is wider than one 64-bit column mask.
  for (size_t k : {size_t{1}, size_t{4}, size_t{65}}) {
    for (bool duplicate_heavy : {true, false}) {
      for (uint64_t seed : {1u, 2u}) {
        ShardedApt apt = RandomCategoricalApt(k, duplicate_heavy, seed);
        const size_t n = apt.num_rows();
        for (size_t shard_rows : {size_t{1}, size_t{7}, size_t{64}, n}) {
          ShardedApt sa = SplitApt(apt, shard_rows);
          for (size_t sample : {n / 3, n - 1, n, n + 40}) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " duplicate_heavy=" + std::to_string(duplicate_heavy) +
                         " seed=" + std::to_string(seed) +
                         " sample=" + std::to_string(sample) +
                         " shard_rows=" + std::to_string(shard_rows));
            Rng rng_a(seed + sample);
            Rng rng_b(seed + sample);
            std::vector<LcaCandidate> got =
                GenerateLcaCandidates(sa, apt.pattern_cols, sample, &rng_a);
            std::vector<LcaCandidate> want =
                AllPairsLca(sa, apt.pattern_cols, sample, &rng_b);
            ASSERT_FALSE(want.empty());
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_EQ(got[i].pattern.Key(), want[i].pattern.Key())
                  << "position " << i;
              ASSERT_EQ(got[i].pair_count, want[i].pair_count)
                  << "position " << i;
            }
            EXPECT_EQ(rng_a.Next(), rng_b.Next());
          }
        }
      }
    }
  }
}

TEST(MinerTest, FindsDiscriminativePattern) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult result = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  ASSERT_FALSE(result.top_k.empty());
  // The best pattern should beat the trivial baseline (precision 0.6).
  EXPECT_GT(result.top_k[0].exact.fscore, 0.75);
  EXPECT_GT(result.patterns_evaluated, 0u);
  // Supports are consistent.
  for (const auto& mp : result.top_k) {
    EXPECT_LE(mp.support_primary, mp.total_primary);
    EXPECT_LE(mp.support_other, mp.total_other);
    EXPECT_EQ(mp.total_primary + mp.total_other, 40);
  }
}

/// Every observable of two Mine() results must agree: counters, the ranked
/// patterns and primaries, sampled and exact scores, supports.
void ExpectSameMineResult(const MineResult& a, const MineResult& b) {
  EXPECT_EQ(a.apt_rows, b.apt_rows);
  EXPECT_EQ(a.num_attributes, b.num_attributes);
  EXPECT_EQ(a.selected_attributes, b.selected_attributes);
  EXPECT_EQ(a.lca_candidates, b.lca_candidates);
  EXPECT_EQ(a.patterns_evaluated, b.patterns_evaluated);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  ASSERT_EQ(a.top_k.size(), b.top_k.size());
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    const MinedPattern& x = a.top_k[i];
    const MinedPattern& y = b.top_k[i];
    EXPECT_EQ(x.pattern.Key(), y.pattern.Key()) << "rank " << i;
    EXPECT_EQ(x.primary, y.primary) << "rank " << i;
    EXPECT_EQ(x.scores.tp, y.scores.tp);
    EXPECT_EQ(x.scores.fp, y.scores.fp);
    EXPECT_EQ(x.scores.fscore, y.scores.fscore);
    EXPECT_EQ(x.exact.tp, y.exact.tp);
    EXPECT_EQ(x.exact.fp, y.exact.fp);
    EXPECT_EQ(x.exact.fscore, y.exact.fscore);
    EXPECT_EQ(x.support_primary, y.support_primary);
    EXPECT_EQ(x.total_primary, y.total_primary);
    EXPECT_EQ(x.support_other, y.support_other);
    EXPECT_EQ(x.total_other, y.total_other);
  }
}

TEST(MinerTest, ShardedMineBitIdentical) {
  // The shard-native miner must reproduce the one-shard result exactly —
  // same patterns, same order, same scores, same counters — at any shard
  // size, including sampled (f1_sample_rate < 1) configurations.
  AptFixture fx;
  for (double sample_rate : {1.0, 0.5}) {
    CajadeConfig config;
    config.sel_attr = 1.0;
    config.f1_sample_rate = sample_rate;
    PatternMiner miner(&config, nullptr);
    Rng rng(7);
    MineResult whole = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
    for (size_t shard_pts : {1u, 7u, 13u, 40u, 100u}) {
      ShardedApt sa = SplitApt(fx.apt, shard_pts);
      Rng rng2(7);
      MineResult split = miner.Mine(sa, fx.classes, &rng2).ValueOrDie();
      SCOPED_TRACE("shard_pts=" + std::to_string(shard_pts) +
                   " rate=" + std::to_string(sample_rate));
      ExpectSameMineResult(split, whole);
    }
  }
}

TEST(MinerTest, MaxNumericAttrsRespected) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  config.max_numeric_attrs = 0;  // no numeric refinement at all
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult result = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  for (const auto& mp : result.top_k) {
    int numeric_preds = 0;
    for (const auto& pred : mp.pattern.preds) {
      if (IsNumeric(fx.table().column(pred.col).type())) ++numeric_preds;
    }
    EXPECT_EQ(numeric_preds, 0);
  }
}

TEST(MinerTest, DiversityChangesSelection) {
  AptFixture fx;
  CajadeConfig config;
  config.sel_attr = 1.0;
  PatternMiner miner(&config, nullptr);
  Rng rng(7);
  MineResult with = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
  config.enable_diversity = false;
  Rng rng2(7);
  MineResult without = miner.Mine(fx.apt, fx.classes, &rng2).ValueOrDie();
  // Both return k patterns; the diverse set has at least as many distinct
  // attribute combinations.
  auto distinct_shapes = [&](const MineResult& r) {
    std::set<std::string> shapes;
    for (const auto& mp : r.top_k) {
      std::string s;
      for (const auto& pred : mp.pattern.preds) s += std::to_string(pred.col) + ",";
      shapes.insert(s);
    }
    return shapes.size();
  };
  EXPECT_GE(distinct_shapes(with), distinct_shapes(without));
}

TEST(DiversityTest, MatchesPaperFormula) {
  AptFixture fx;
  auto eq = [&](int col, const char* v) {
    return PatternPredicate::Make(fx.table(), col, PredOp::kEq, Value(v));
  };
  auto le = [&](int col, int64_t v) {
    return PatternPredicate::Make(fx.table(), col, PredOp::kLe, Value(v));
  };
  CandidatePool pool;
  auto add = [&](std::vector<PatternPredicate> preds) {
    std::vector<uint32_t> ids;
    for (PatternPredicate& p : preds) ids.push_back(pool.AddPredicate(p));
    return pool.AddPattern(ids.data(), ids.size());
  };
  uint32_t a = add({eq(0, "a")});
  uint32_t b_free = add({});          // attribute not used: +1
  uint32_t b_same = add({eq(0, "a")});  // same constant: -2
  uint32_t b_diff = add({eq(0, "b")});  // different constant: -0.3
  EXPECT_DOUBLE_EQ(pool.Diversity(a, b_free), 1.0);
  EXPECT_DOUBLE_EQ(pool.Diversity(a, b_same), -2.0);
  EXPECT_DOUBLE_EQ(pool.Diversity(a, b_diff), -0.3);
  EXPECT_DOUBLE_EQ(pool.Diversity(b_free, a), 1.0);
  // Averaged over the first pattern's predicates.
  uint32_t two = add({eq(0, "a"), le(1, 50)});
  EXPECT_DOUBLE_EQ(pool.Diversity(two, a), (-2.0 + 1.0) / 2);
  EXPECT_DOUBLE_EQ(pool.Diversity(a, two), -2.0);
}

// ---- Ranking (Section 3.5) against the first implementation ----------------

/// The diversity score as first written, over materialized patterns.
double ReferenceDiversityScore(const Pattern& a, const Pattern& b) {
  if (a.preds.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& pa : a.preds) {
    const PatternPredicate* pb = b.Find(pa.col);
    if (pb == nullptr) {
      sum += 1.0;
    } else if (pa.value == pb->value) {
      sum += -2.0;
    } else {
      sum += -0.3;
    }
  }
  return sum / static_cast<double>(a.preds.size());
}

/// SelectTopKDiverse as first written, kept as the oracle: Key() strings
/// formatted per entry for the tie-breaks, and every candidate's diversity
/// recomputed against every pick in every round (O(k^2 * window)).
std::vector<size_t> ReferenceSelectTopKDiverse(
    const std::vector<MinedPattern>& pool, size_t k, bool use_diversity) {
  std::vector<std::string> keys(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) keys[i] = pool[i].pattern.Key();
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pool[a].scores.fscore != pool[b].scores.fscore) {
      return pool[a].scores.fscore > pool[b].scores.fscore;
    }
    return keys[a] < keys[b];
  });
  if (!use_diversity) {
    if (order.size() > k) order.resize(k);
    return order;
  }
  const size_t kDiversityWindow = 2000;
  if (order.size() > kDiversityWindow) order.resize(kDiversityWindow);
  std::vector<size_t> selected;
  std::vector<bool> used(order.size(), false);
  while (selected.size() < k) {
    double best_score = -1e18;
    size_t best_pos = SIZE_MAX;
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (used[pos]) continue;
      const MinedPattern& cand = pool[order[pos]];
      double wscore = cand.scores.fscore;
      if (!selected.empty()) {
        double min_d = 1e18;
        for (size_t s : selected) {
          min_d = std::min(min_d,
                           ReferenceDiversityScore(cand.pattern, pool[s].pattern));
        }
        wscore += min_d;
      }
      if (wscore > best_score) {
        best_score = wscore;
        best_pos = pos;
      }
    }
    if (best_pos == SIZE_MAX) break;
    used[best_pos] = true;
    selected.push_back(order[best_pos]);
  }
  return selected;
}

/// A random pattern over columns 0..5 with tiny domains, so keys and
/// diversity scores collide often: equality on "string" columns 0-2 (values
/// with spaces and '&'), <=/>= on numeric columns 3-5 (negative ints,
/// integral and fractional doubles). At least one predicate; sorted by
/// column like every Pattern.
Pattern RandomPattern(Rng* rng) {
  static const char* kWords[] = {"a", "a b", "a&b", "b", "a b&c", "-3"};
  Pattern p;
  while (p.empty()) {
    for (int col = 0; col < 6; ++col) {
      if (!rng->Bernoulli(0.4)) continue;
      PatternPredicate pred;
      pred.col = col;
      if (col < 3) {
        pred.op = PredOp::kEq;
        pred.value = Value(kWords[rng->NextBounded(6)]);
      } else {
        pred.op = rng->Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe;
        switch (rng->NextBounded(3)) {
          case 0:
            pred.value = Value(rng->UniformInt(-12, 12));
            break;
          case 1:
            pred.value = Value(static_cast<double>(rng->UniformInt(-3, 3)));
            break;
          default:
            pred.value = Value(rng->UniformInt(-30, 30) / 8.0);
        }
      }
      p.preds.push_back(pred);
    }
  }
  return p;
}

/// Adds `p` to `pool` through interned predicates handed over in a shuffled
/// order (AddPattern must restore Pattern's column order).
uint32_t AddToPool(const Pattern& p, Rng* rng, CandidatePool* pool) {
  std::vector<uint32_t> ids;
  for (const PatternPredicate& pred : p.preds) {
    ids.push_back(pool->AddPredicate(pred));
  }
  rng->Shuffle(&ids);
  return pool->AddPattern(ids.data(), ids.size());
}

TEST(CandidatePoolTest, TokenBuiltKeysEqualPatternKey) {
  Rng rng(11);
  CandidatePool pool;
  for (int i = 0; i < 2000; ++i) {
    Pattern p = RandomPattern(&rng);
    uint32_t id = AddToPool(p, &rng, &pool);
    ASSERT_EQ(pool.Key(id), p.Key());
    Pattern made = pool.MakePattern(id);
    ASSERT_EQ(made.Key(), p.Key());
    ASSERT_EQ(made.size(), p.size());
  }
  // The token format itself, on the cases the random patterns mix.
  auto pred = [](int col, PredOp op, Value v) {
    PatternPredicate p;
    p.col = col;
    p.op = op;
    p.value = std::move(v);
    return p;
  };
  Pattern p;
  p.preds = {pred(0, PredOp::kEq, Value("a b&c")),
             pred(3, PredOp::kLe, Value(int64_t{-7})),
             pred(4, PredOp::kGe, Value(2.0)),
             pred(5, PredOp::kLe, Value(-0.375))};
  EXPECT_EQ(p.Key(), "0=a b&c&3<=-7&4>=2.0&5<=-0.375");
  CandidatePool one;
  EXPECT_EQ(one.Key(AddToPool(p, &rng, &one)), p.Key());
}

TEST(SelectTopKDiverseTest, MatchesReferenceOnTieHeavyPools) {
  // <= 5 distinct F-scores, every pattern pooled for both primaries, pools
  // below and above the 2000-entry diversity window.
  const double kScores[] = {0.25, 0.5, 0.6, 0.75, 1.0};
  for (size_t num_patterns : {300u, 1500u}) {
    for (uint64_t seed : {1u, 2u}) {
      Rng rng(seed * 1000 + num_patterns);
      CandidatePool pool;
      std::vector<MinedPattern> flat;
      for (size_t i = 0; i < num_patterns; ++i) {
        Pattern p = RandomPattern(&rng);
        uint32_t id = AddToPool(p, &rng, &pool);
        for (int primary = 0; primary < 2; ++primary) {
          MinedPattern mp;
          mp.pattern = p;
          mp.primary = primary;
          mp.scores.fscore = kScores[rng.NextBounded(5)];
          pool.AddEntry(id, primary, mp.scores);
          flat.push_back(std::move(mp));
        }
      }
      for (size_t k : {1u, 10u, 50u}) {
        for (bool diversity : {true, false}) {
          SCOPED_TRACE("patterns=" + std::to_string(num_patterns) +
                       " seed=" + std::to_string(seed) +
                       " k=" + std::to_string(k) +
                       " diversity=" + std::to_string(diversity));
          EXPECT_EQ(SelectTopKDiverse(pool, k, diversity),
                    ReferenceSelectTopKDiverse(flat, k, diversity));
        }
      }
    }
  }
}

// ---- Refinement: shard-, sample- and budget-stable, scored as defined -----

/// A NULL-heavy random APT: PT positions with 1-3 APT rows each, string,
/// INT64 and DOUBLE columns whose values lean on the class, and about a
/// third of all cells NULL.
struct RandomAptFixture {
  ShardedApt apt;
  PtClasses classes;

  explicit RandomAptFixture(uint64_t seed) {
    Rng rng(seed);
    Schema schema({{"s1", DataType::kString},
                   {"i1", DataType::kInt64},
                   {"d1", DataType::kDouble},
                   {"s2", DataType::kString},
                   {"i2", DataType::kInt64},
                   {"d2", DataType::kDouble}});
    Table t("APT", std::move(schema));
    std::vector<int32_t> pt_row;
    static const char* kWords[] = {"a", "b b", "c&d", "e", "f"};
    const size_t n = 60 + rng.NextBounded(90);
    for (size_t p = 0; p < n; ++p) {
      const int cls = rng.Bernoulli(0.45) ? 1 : 0;
      const size_t copies = 1 + rng.NextBounded(3);
      for (size_t c = 0; c < copies; ++c) {
        auto maybe = [&](Value v) {
          return rng.Bernoulli(0.35) ? Value::Null() : std::move(v);
        };
        (void)t.AppendRow(
            {maybe(Value(kWords[cls * 2 + rng.NextBounded(3)])),
             maybe(Value(rng.UniformInt(-20, 40) + cls * 15)),
             maybe(Value(rng.UniformDouble() * 10 + cls * 3)),
             maybe(Value(kWords[rng.NextBounded(5)])),
             maybe(Value(static_cast<int64_t>(rng.NextBounded(4)))),
             maybe(Value(static_cast<double>(rng.NextBounded(5)) / 2 - 1))});
        pt_row.push_back(static_cast<int32_t>(p));
      }
      classes.push_back(static_cast<int8_t>(cls));
    }
    apt = OneShardApt(std::move(t), std::move(pt_row), n, {0, 1, 2, 3, 4, 5});
  }
};

TEST(MinerTest, RefinementStableAcrossShardsSamplesAndBudgets) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomAptFixture fx(seed);
    const size_t n = fx.apt.pt_rows_used.size();
    for (double rate : {1.0, 0.3}) {
      for (int budget = 0; budget < 3; ++budget) {
        CajadeConfig config;
        config.sel_attr = 1.0;
        config.f1_sample_rate = rate;
        if (budget == 1) config.refinement_budget = 10;
        // Every candidate off the first seed charges about the APT's row
        // count, so this trips inside the first seed's refinement tree.
        if (budget == 2) config.refinement_row_budget = fx.apt.num_rows() * 5;
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " rate=" + std::to_string(rate) +
                     " budget=" + std::to_string(budget));
        PatternMiner miner(&config, nullptr);
        Rng rng(seed);
        MineResult whole = miner.Mine(fx.apt, fx.classes, &rng).ValueOrDie();
        ASSERT_FALSE(whole.top_k.empty());
        EXPECT_EQ(whole.budget_exhausted, budget > 0);
        if (budget == 1) {
          EXPECT_EQ(whole.patterns_evaluated, 10u);
        }
        for (size_t shard_pts : {size_t{1}, size_t{7}, size_t{64}, n}) {
          SCOPED_TRACE("shard_pts=" + std::to_string(shard_pts));
          ShardedApt sa = SplitApt(fx.apt, shard_pts);
          Rng rng2(seed);
          MineResult split = miner.Mine(sa, fx.classes, &rng2).ValueOrDie();
          ExpectSameMineResult(split, whole);
          // Exact scores are Definition 7 evaluated row by row, shard by
          // shard, on the APT that was mined; without F1 sampling, so are
          // the scores mining ranked by (seed masks ANDed with refinement
          // masks).
          MetricsView full = FullView(sa, fx.classes);
          for (const MinedPattern& mp : split.top_k) {
            PatternScores s =
                ScorePattern(mp.pattern, sa, fx.classes, full, mp.primary);
            EXPECT_EQ(mp.exact.tp, s.tp) << mp.pattern.Key();
            EXPECT_EQ(mp.exact.fp, s.fp) << mp.pattern.Key();
            EXPECT_EQ(mp.exact.fn, s.fn) << mp.pattern.Key();
            EXPECT_EQ(mp.exact.fscore, s.fscore) << mp.pattern.Key();
            if (rate == 1.0) {
              EXPECT_EQ(mp.scores.tp, s.tp) << mp.pattern.Key();
              EXPECT_EQ(mp.scores.fp, s.fp) << mp.pattern.Key();
              EXPECT_EQ(mp.scores.fn, s.fn) << mp.pattern.Key();
              EXPECT_EQ(mp.scores.fscore, s.fscore) << mp.pattern.Key();
            }
          }
        }
      }
    }
  }
}

TEST(MinerTest, RejectsOutOfRangeSampleKnobs) {
  // Mine casts pat_sample_rate * |APT| and sel_attr * |attributes| to
  // counts: NaN, infinite and negative knobs are refused by name, and a
  // huge finite value acts as "everything". A huge forest_max_depth is
  // valid and bounded by what the pool can reach.
  RandomAptFixture fx(1);
  for (const char* knob : {"pat_sample_rate", "sel_attr"}) {
    for (double bad : {std::nan(""), -1.0, HUGE_VAL}) {
      SCOPED_TRACE(std::string(knob) + "=" + std::to_string(bad));
      CajadeConfig config;
      (std::string(knob) == "sel_attr" ? config.sel_attr
                                       : config.pat_sample_rate) = bad;
      PatternMiner miner(&config, nullptr);
      Rng rng(1);
      Result<MineResult> result = miner.Mine(fx.apt, fx.classes, &rng);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find(knob), std::string::npos)
          << result.status().message();
    }
  }
  // The forest knobs size its tree list and its depth, and top_k and k_cat
  // cap the winners and the seeds: negative values, which a cast to a count
  // would turn into "no cap", are refused by name too, before anything is
  // trained.
  for (const auto& [knob, field] :
       {std::pair{"forest_trees", &CajadeConfig::forest_trees},
        std::pair{"forest_max_depth", &CajadeConfig::forest_max_depth},
        std::pair{"top_k", &CajadeConfig::top_k},
        std::pair{"k_cat", &CajadeConfig::k_cat}}) {
    for (int bad : {-1, -2, INT_MIN}) {
      SCOPED_TRACE(std::string(knob) + "=" + std::to_string(bad));
      CajadeConfig config;
      config.*field = bad;
      PatternMiner miner(&config, nullptr);
      Rng rng(1);
      Result<MineResult> result = miner.Mine(fx.apt, fx.classes, &rng);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find(knob), std::string::npos)
          << result.status().message();
    }
  }
  CajadeConfig huge_rate, all_rows, huge_sel, all_attrs, huge_depth, deep;
  huge_rate.pat_sample_rate = 1e300;
  all_rows.pat_sample_rate = 1.0;
  huge_sel.sel_attr = 1e30;
  all_attrs.sel_attr = static_cast<double>(fx.apt.pattern_cols.size());
  huge_depth.forest_max_depth = INT_MAX;
  deep.forest_max_depth = 1000;  // deeper than a pool of < 450 rows grows
  for (const auto& [huge, all] : {std::pair{&huge_rate, &all_rows},
                                  std::pair{&huge_sel, &all_attrs},
                                  std::pair{&huge_depth, &deep}}) {
    PatternMiner miner_huge(huge, nullptr), miner_all(all, nullptr);
    Rng rng_huge(1), rng_all(1);
    ExpectSameMineResult(
        miner_huge.Mine(fx.apt, fx.classes, &rng_huge).ValueOrDie(),
        miner_all.Mine(fx.apt, fx.classes, &rng_all).ValueOrDie());
  }
}

TEST(MinerTest, Int64BoundariesAreColumnValues) {
  // Values near INT64_MAX and beyond 2^53, where a double cannot tell
  // neighbours apart: class 0 sits at the top of the range, class 1 just
  // above 2^53.
  Schema schema({{"big", DataType::kInt64}, {"small", DataType::kInt64}});
  Table t("APT", std::move(schema));
  std::vector<int32_t> pt_row;
  PtClasses classes;
  std::set<int64_t> values;
  const int64_t kTwo53 = int64_t{1} << 53;
  for (int p = 0; p < 40; ++p) {
    const bool class0 = p < 22;
    const int64_t big = class0 ? INT64_MAX - 3 * (p % 7) : kTwo53 + 1 + 2 * p;
    values.insert(big);
    (void)t.AppendRow({Value(big), Value(int64_t{p % 5})});
    pt_row.push_back(p);
    classes.push_back(class0 ? 0 : 1);
  }
  ShardedApt apt = OneShardApt(std::move(t), std::move(pt_row), 40, {0, 1});
  CajadeConfig config;
  config.num_fragments = 5;
  PatternMiner miner(&config, nullptr);
  Rng rng(3);
  MineResult result = miner.Mine(apt, classes, &rng).ValueOrDie();
  ASSERT_FALSE(result.top_k.empty());
  size_t quoted = 0;
  for (const MinedPattern& mp : result.top_k) {
    const PatternPredicate* pred = mp.pattern.Find(0);
    if (pred == nullptr) continue;
    ++quoted;
    ASSERT_TRUE(pred->value.is_int()) << mp.pattern.Key();
    EXPECT_EQ(values.count(pred->value.AsInt()), 1u) << mp.pattern.Key();
  }
  EXPECT_GT(quoted, 0u);
  // The split between the classes is exact at int64 precision.
  EXPECT_EQ(result.top_k[0].exact.fscore, 1.0);
}

TEST(MinerTest, DoubleColumnWithNaNsMines) {
  Schema schema({{"d", DataType::kDouble}, {"i", DataType::kInt64}});
  Table t("APT", std::move(schema));
  std::vector<int32_t> pt_row;
  PtClasses classes;
  for (int p = 0; p < 50; ++p) {
    const bool class0 = p < 25;
    const double d = p % 3 == 0 ? std::nan("") : (class0 ? 10.0 + p : -p / 4.0);
    (void)t.AppendRow({Value(d), Value(int64_t{p % 4})});
    pt_row.push_back(p);
    classes.push_back(class0 ? 0 : 1);
  }
  ShardedApt apt = OneShardApt(std::move(t), std::move(pt_row), 50, {0, 1});
  CajadeConfig config;
  PatternMiner miner(&config, nullptr);
  Rng rng(5);
  Result<MineResult> result = miner.Mine(apt, classes, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->top_k.empty());
  MetricsView full = FullView(apt, classes);
  size_t quoted = 0;
  for (const MinedPattern& mp : result->top_k) {
    if (const PatternPredicate* pred = mp.pattern.Find(0)) {
      ++quoted;
      EXPECT_FALSE(std::isnan(pred->value.AsDouble())) << mp.pattern.Key();
    }
    PatternScores s = ScorePattern(mp.pattern, apt, classes, full, mp.primary);
    EXPECT_EQ(mp.exact.tp, s.tp) << mp.pattern.Key();
    EXPECT_EQ(mp.exact.fp, s.fp) << mp.pattern.Key();
  }
  EXPECT_GT(quoted, 0u);
}

// ---- Proposition 3.1 as a property sweep ----------------------------------
// For random patterns and any refinement, recall must not increase.

class RecallMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(RecallMonotonicityTest, RefinementNeverIncreasesRecall) {
  AptFixture fx;
  MetricsView view = FullView(fx.apt, fx.classes);
  Rng rng(GetParam());
  // Random base pattern: maybe a categorical predicate.
  Pattern base;
  if (rng.Bernoulli(0.5)) {
    base.preds.push_back(PatternPredicate::Make(
        fx.table(), 0, PredOp::kEq, Value(rng.Bernoulli(0.5) ? "a" : "b")));
  }
  // Random numeric refinement.
  PredOp op = rng.Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe;
  Pattern refined = base.Refine(PatternPredicate::Make(
      fx.table(), 1, op, Value(rng.UniformInt(0, 100))));
  for (int primary = 0; primary < 2; ++primary) {
    PatternScores s_base = ScorePattern(base, fx.apt, fx.classes, view, primary);
    PatternScores s_ref =
        ScorePattern(refined, fx.apt, fx.classes, view, primary);
    EXPECT_LE(s_ref.recall, s_base.recall + 1e-12)
        << "primary=" << primary << " base=" << base.Describe(fx.table())
        << " refined=" << refined.Describe(fx.table());
    // TP monotone too (Definition 7b).
    EXPECT_LE(s_ref.tp, s_base.tp);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, RecallMonotonicityTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace cajade
