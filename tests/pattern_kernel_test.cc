// Tests for the predicate masks and bitset coverage scoring: a pattern's
// match mask as the miner builds it — the AND of its predicates'
// CompiledPredicate::EvalMask masks — against the scalar Pattern::Matches
// loop row by row, exact int64 threshold semantics beyond 2^53, and
// CoverageScorer equivalence with the byte-vector ScoreFromCoverage.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/mining/coverage.h"
#include "src/mining/pattern.h"
#include "src/mining/pattern_kernel.h"
#include "src/mining/quality.h"
#include "src/storage/table.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

/// Random table with one column of each type; `null_rate` controls how
/// NULL-heavy every column is.
Table RandomTable(size_t rows, Rng* rng, double null_rate = 0.1) {
  Table t("t", Schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"s", DataType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    Value i = rng->Bernoulli(null_rate) ? Value::Null()
                                        : Value(rng->UniformInt(-5, 15));
    Value d = rng->Bernoulli(null_rate) ? Value::Null()
                                        : Value(rng->Uniform(-2.0, 2.0));
    Value s = rng->Bernoulli(null_rate)
                  ? Value::Null()
                  : Value("c" + std::to_string(rng->NextBounded(6)));
    t.AppendRow({i, d, s});
  }
  return t;
}

/// A random pattern of one to three predicates, one per column.
Pattern RandomPattern(const Table& t, Rng* rng) {
  Pattern p;
  if (rng->Bernoulli(0.6)) {
    // String equality; sometimes a constant missing from the dictionary.
    std::string c = rng->Bernoulli(0.2)
                        ? "missing"
                        : "c" + std::to_string(rng->NextBounded(6));
    p = p.Refine(PatternPredicate::Make(t, 2, PredOp::kEq, Value(c)));
  }
  if (p.size() == 0 || rng->Bernoulli(0.7)) {
    PredOp op = rng->Bernoulli(0.5) ? PredOp::kLe : PredOp::kGe;
    p = p.Refine(PatternPredicate::Make(t, 0, op, Value(rng->UniformInt(-5, 15))));
  }
  if (rng->Bernoulli(0.7)) {
    PredOp op = rng->Bernoulli(0.33)   ? PredOp::kEq
                : rng->Bernoulli(0.5) ? PredOp::kLe
                                       : PredOp::kGe;
    p = p.Refine(PatternPredicate::Make(t, 1, op, Value(rng->Uniform(-2.0, 2.0))));
  }
  return p;
}

/// The miner's evaluation of a non-empty pattern: the first predicate's
/// mask, then each further predicate's mask ANDed in. The output words start
/// as all ones, so a row or tail bit the masks fail to write shows up.
/// Returns the match count.
size_t PatternMask(const Pattern& p, const Table& t, std::vector<uint64_t>* out) {
  const size_t rows = t.num_rows();
  const size_t words = CoverageBitmap::NumWords(rows);
  out->assign(words, ~uint64_t{0});
  size_t count =
      CompiledPredicate::Compile(p.preds[0], t).EvalMask(rows, out->data());
  std::vector<uint64_t> pred_mask(words, ~uint64_t{0});
  for (size_t i = 1; i < p.size(); ++i) {
    CompiledPredicate::Compile(p.preds[i], t).EvalMask(rows, pred_mask.data());
    count = AndPopcountInto(out->data(), pred_mask.data(), words, out->data());
  }
  return count;
}

/// The rows whose bit is set, tail bits included.
std::vector<int32_t> MaskRows(const std::vector<uint64_t>& mask) {
  std::vector<int32_t> rows;
  ForEachSetBit(mask.data(), mask.size(),
                [&](size_t r) { rows.push_back(static_cast<int32_t>(r)); });
  return rows;
}

std::vector<int32_t> MatchingRows(const Pattern& p, const Table& t) {
  std::vector<int32_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (p.Matches(t, r)) rows.push_back(static_cast<int32_t>(r));
  }
  return rows;
}

// The one evaluation path against the scalar definition, on NULL-heavy
// columns, across tail sizes (num_rows % 64 != 0) and exact word multiples:
// each predicate's mask alone and the AND of all of them.
TEST(PatternMaskTest, AndOfPredicateMasksEqualsScalarLoopRandomized) {
  Rng rng(47);
  const double null_rates[] = {0.0, 0.1, 0.5, 0.95};
  for (int trial = 0; trial < 60; ++trial) {
    size_t rows = 1 + rng.NextBounded(420);  // covers <64 and multi-word + tails
    if (trial % 5 == 0) rows = 64 * (1 + rng.NextBounded(4));  // exact words
    Table t = RandomTable(rows, &rng, null_rates[trial % 4]);
    Pattern p = RandomPattern(t, &rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + " " + p.Key());

    std::vector<uint64_t> mask;
    const size_t count = PatternMask(p, t, &mask);
    const std::vector<int32_t> expected = MatchingRows(p, t);
    ASSERT_EQ(MaskRows(mask), expected);
    ASSERT_EQ(count, expected.size());

    for (const PatternPredicate& pred : p.preds) {
      Pattern single;
      single = single.Refine(pred);
      std::vector<uint64_t> pred_mask;
      const size_t pred_count = PatternMask(single, t, &pred_mask);
      const std::vector<int32_t> pred_expected = MatchingRows(single, t);
      ASSERT_EQ(MaskRows(pred_mask), pred_expected) << pred.KeyToken();
      ASSERT_EQ(pred_count, pred_expected.size());
    }
  }
}

// Entirely-NULL columns produce all-NULL words: every predicate on them
// matches nothing, on full words and tails alike.
TEST(PatternMaskTest, AllNullColumnMatchesNothing) {
  Table t("t", Schema({{"i", DataType::kInt64}, {"d", DataType::kDouble}}));
  for (size_t r = 0; r < 130; ++r) {  // two full words + a tail
    t.AppendRow({Value::Null(), Value(1.0)});
  }
  std::vector<uint64_t> mask;
  for (PredOp op : {PredOp::kEq, PredOp::kLe, PredOp::kGe}) {
    Pattern p;
    p = p.Refine(PatternPredicate::Make(t, 0, op, Value(int64_t{0})));
    EXPECT_EQ(PatternMask(p, t, &mask), 0u);
    EXPECT_TRUE(MaskRows(mask).empty());
  }
  // A null-free column in the same table still matches (the fast path must
  // not leak between predicates).
  Pattern p;
  p = p.Refine(PatternPredicate::Make(t, 1, PredOp::kLe, Value(2.0)));
  EXPECT_EQ(PatternMask(p, t, &mask), t.num_rows());
  EXPECT_EQ(MaskRows(mask).size(), t.num_rows());
}

TEST(PatternMaskTest, MissingDictionaryConstantMatchesNothing) {
  Rng rng(37);
  Table t = RandomTable(60, &rng);
  PatternPredicate pred =
      PatternPredicate::Make(t, 2, PredOp::kEq, Value("nope"));
  EXPECT_EQ(CompiledPredicate::Compile(pred, t).kind,
            CompiledPredicate::Kind::kNever);
  Pattern p;
  p = p.Refine(pred);
  std::vector<uint64_t> mask;
  EXPECT_EQ(PatternMask(p, t, &mask), 0u);
  EXPECT_TRUE(MaskRows(mask).empty());
}

// Regression for the >2^53 precision collapse: int64 comparisons run
// against an exact int64 threshold. The seed cast rows to double, which
// equates e.g. 2^62 + 1 with 2^62 + 2 (both round to the same double);
// Pattern::Matches still does, which is exactly why the masks pin the
// exact semantics here instead of differentially.
TEST(CompiledPredicateTest, HugeInt64ThresholdsAreExact) {
  const int64_t base = int64_t{1} << 62;
  Table t("t", Schema({{"i", DataType::kInt64}}));
  for (int64_t delta : {0, 1, 2, 3}) t.AppendRow({Value(base + delta)});
  t.AppendRow({Value::Null()});

  auto match = [&](PredOp op, Value v) {
    PatternPredicate pred = PatternPredicate::Make(t, 0, op, std::move(v));
    std::vector<uint64_t> mask(1, ~uint64_t{0});
    const uint64_t count =
        CompiledPredicate::Compile(pred, t).EvalMask(t.num_rows(), mask.data());
    std::vector<int32_t> rows = MaskRows(mask);
    EXPECT_EQ(count, rows.size());
    return rows;
  };

  // The double domain cannot tell base+1 and base+2 apart; the mask must.
  EXPECT_EQ(match(PredOp::kEq, Value(base + 1)), (std::vector<int32_t>{1}));
  EXPECT_EQ(match(PredOp::kLe, Value(base + 1)), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(match(PredOp::kGe, Value(base + 2)), (std::vector<int32_t>{2, 3}));

  // Double constants convert to the equivalent exact int64 bound.
  EXPECT_EQ(match(PredOp::kLe, Value(0.5)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kGe, Value(0.5)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kEq, Value(0.5)), (std::vector<int32_t>{}));
  // Out-of-range constants clamp (Le +huge: all non-null) or never match.
  EXPECT_EQ(match(PredOp::kLe, Value(1e300)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kGe, Value(1e300)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kLe, Value(-1e300)), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kGe, Value(-1e300)), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(match(PredOp::kEq, Value(std::nan(""))), (std::vector<int32_t>{}));
  EXPECT_EQ(match(PredOp::kLe, Value(std::nan(""))), (std::vector<int32_t>{}));
}

TEST(CoverageBitmapTest, SetTestPopcount) {
  CoverageBitmap b(130);  // crosses two word boundaries
  EXPECT_EQ(b.Popcount(), 0u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(128));
  EXPECT_EQ(b.Popcount(), 4u);

  CoverageBitmap other(130);
  other.Set(63);
  other.Set(128);
  other.Set(129);
  EXPECT_EQ(b.AndPopcount(other), 2u);

  // SetAll leaves the tail word's bits past num_bits() clear.
  CoverageBitmap all(130);
  all.SetAll();
  EXPECT_EQ(all.Popcount(), 130u);
  EXPECT_EQ(all.AndPopcount(b), 4u);

  b.Reset(130);
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(CoverageScorerTest, MatchesByteVectorScoringRandomized) {
  Rng rng(43);
  for (int trial = 0; trial < 30; ++trial) {
    size_t m = 10 + rng.NextBounded(300);
    PtClasses classes(m);
    MetricsView view;
    view.all_rows = false;
    view.pt_sampled.assign(m, 0);
    for (size_t p = 0; p < m; ++p) {
      classes[p] = rng.Bernoulli(0.4) ? 1 : 0;
      view.pt_sampled[p] = rng.Bernoulli(0.7) ? 1 : 0;
      if (!view.pt_sampled[p]) continue;
      if (classes[p] == 0) {
        ++view.n1;
      } else {
        ++view.n2;
      }
    }

    std::vector<uint8_t> covered_bytes(m, 0);
    CoverageBitmap covered(m);
    for (size_t p = 0; p < m; ++p) {
      if (rng.Bernoulli(0.3)) {
        covered_bytes[p] = 1;
        covered.Set(p);
      }
    }

    CoverageScorer scorer(classes, view);
    for (int primary = 0; primary < 2; ++primary) {
      PatternScores expect =
          ScoreFromCoverage(covered_bytes, classes, view, primary);
      PatternScores got = scorer.Score(covered, primary);
      ASSERT_EQ(got.tp, expect.tp) << "trial " << trial;
      ASSERT_EQ(got.fp, expect.fp) << "trial " << trial;
      ASSERT_EQ(got.fn, expect.fn) << "trial " << trial;
      ASSERT_DOUBLE_EQ(got.precision, expect.precision);
      ASSERT_DOUBLE_EQ(got.recall, expect.recall);
      ASSERT_DOUBLE_EQ(got.fscore, expect.fscore);
    }
  }
}

TEST(CoverageScorerTest, CoverageFromRowsMapsAptRowsToPtPositions) {
  // Three APT rows extending PT positions {0, 1, 1}.
  std::vector<int32_t> pt_row = {0, 1, 1};
  CoverageBitmap covered(2);
  CoverageFromRows({0, 2}, pt_row, &covered);
  EXPECT_TRUE(covered.Test(0));
  EXPECT_TRUE(covered.Test(1));
  covered.Reset(2);
  CoverageFromRows({1}, pt_row, &covered);
  EXPECT_FALSE(covered.Test(0));
  EXPECT_TRUE(covered.Test(1));
}

TEST(CoverageScorerTest, CoverageFromMaskEqualsCoverageFromRows) {
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    size_t apt_rows = 1 + rng.NextBounded(400);
    size_t positions = 1 + rng.NextBounded(100);
    std::vector<int32_t> pt_row(apt_rows);
    for (auto& p : pt_row) p = static_cast<int32_t>(rng.NextBounded(positions));
    std::vector<int32_t> matched;
    CoverageBitmap mask(apt_rows);
    for (size_t r = 0; r < apt_rows; ++r) {
      if (rng.Bernoulli(0.25)) {
        matched.push_back(static_cast<int32_t>(r));
        mask.Set(r);
      }
    }
    CoverageBitmap from_rows(positions), from_mask(positions);
    CoverageFromRows(matched, pt_row, &from_rows);
    CoverageScorer::CoverageFromMask(mask.words().data(), mask.num_words(),
                                     pt_row, &from_mask);
    ASSERT_EQ(from_rows.words(), from_mask.words()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cajade
