// Tests for the comparison systems: Explanation Tables and CAPE.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baselines/cape.h"
#include "src/baselines/explanation_tables.h"
#include "src/common/timer.h"
#include "tests/apt_test_util.h"

namespace cajade {
namespace {

/// One-shard APT with a binary outcome strongly linked to cat="hot". With
/// `num_tags` > 0 a fourth column, "tag", holds one of that many values
/// (drawn from its own stream, so the other columns do not change).
struct EtFixture {
  ShardedApt apt;
  std::vector<int8_t> outcome;

  explicit EtFixture(size_t num_tags = 0) {
    std::vector<ColumnDef> cols = {{"cat", DataType::kString},
                                   {"other", DataType::kString},
                                   {"num", DataType::kInt64}};
    std::vector<int> pattern_cols = {0, 1, 2};
    if (num_tags > 0) {
      cols.push_back({"tag", DataType::kString});
      pattern_cols.push_back(3);
    }
    Table t("APT", Schema(std::move(cols)));
    std::vector<int32_t> pt_row;
    Rng rng(21);
    Rng tag_rng(22);
    for (int i = 0; i < 400; ++i) {
      bool hot = rng.Bernoulli(0.4);
      std::string cat = hot ? "hot" : "cold";
      std::string other = rng.Bernoulli(0.5) ? "x" : "y";
      std::vector<Value> row = {Value(cat), Value(other),
                                Value(rng.UniformInt(0, 100))};
      if (num_tags > 0) {
        row.push_back(Value("t" + std::to_string(tag_rng.NextBounded(num_tags))));
      }
      (void)t.AppendRow(row);
      pt_row.push_back(i);
      outcome.push_back(hot && rng.Bernoulli(0.9) ? 1 : (rng.Bernoulli(0.1) ? 1 : 0));
    }
    apt = OneShardApt(std::move(t), std::move(pt_row), 400,
                      std::move(pattern_cols));
  }
};

TEST(ExplanationTablesTest, FindsHighGainPatternFirst) {
  EtFixture fx;
  EtOptions options;
  options.sample_size = 64;
  options.table_size = 5;
  ExplanationTables et(options);
  Rng rng(3);
  auto table = et.Build(fx.apt, fx.outcome, &rng);
  ASSERT_FALSE(table.empty());
  // The first pattern must involve the cat column and have a rate far from
  // the base rate.
  EXPECT_NE(table[0].pattern.Describe(fx.apt.schema_table()).find("cat"),
            std::string::npos);
  EXPECT_GT(table[0].gain, 0.0);
  // Gains weakly decrease (greedy).
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_LE(table[i].gain, table[0].gain + 1e-9);
  }
}

TEST(ExplanationTablesTest, RuntimeGrowsWithSampleSize) {
  // LCA meets each pair of distinct sampled rows once, so a larger sample
  // costs more only when it holds more distinct rows. The tag column makes
  // most rows distinct, as the many-valued attributes of real APTs do; over
  // cat and other alone, 16 and 256 rows hold the same four tuples.
  EtFixture fx(/*num_tags=*/100);
  Rng rng(3);
  auto run = [&](size_t size) {
    EtOptions options;
    options.sample_size = size;
    options.table_size = 10;
    ExplanationTables et(options);
    Rng local(3);
    Timer t;
    auto table = et.Build(fx.apt, fx.outcome, &local);
    return t.ElapsedSeconds();
  };
  // Not asserting exact quadratics (too flaky); just that work grows.
  double small = run(16) + run(16);
  double big = run(256) + run(256);
  EXPECT_GT(big, small);
}

TEST(ExplanationTablesTest, NoCategoricalColumnsYieldsEmpty) {
  Schema schema({{"num", DataType::kInt64}});
  Table t("APT", std::move(schema));
  (void)t.AppendRow({Value(int64_t{1})});
  ShardedApt apt = OneShardApt(std::move(t), {0}, 1, {0});
  ExplanationTables et(EtOptions{});
  Rng rng(1);
  EXPECT_TRUE(et.Build(apt, {1}, &rng).empty());
}

TEST(BinNumericTest, ConvertsNumericToCategorical) {
  EtFixture fx;
  ShardedApt binned = BinNumericColumns(fx.apt, 4);
  const Table& table = binned.schema_table();
  int num_col = table.schema().FindColumn("num");
  ASSERT_GE(num_col, 0);
  EXPECT_EQ(table.schema().column(num_col).type, DataType::kString);
  EXPECT_LE(table.column(num_col).dict_size(), 4u);
  EXPECT_EQ(binned.num_rows(), fx.apt.num_rows());
}

TEST(ExplanationTablesTest, ShardedAptBuildsTheSameTable) {
  // Binning and the greedy table read shards in global row order: every
  // shard size yields the one-shard result, labels and gains included.
  EtFixture fx;
  EtOptions options;
  options.table_size = 8;
  ExplanationTables et(options);
  ShardedApt binned = BinNumericColumns(fx.apt, 4);
  Rng rng(3);
  auto whole = et.Build(binned, fx.outcome, &rng);
  ASSERT_FALSE(whole.empty());
  for (size_t shard_pts : {1u, 7u, 64u, 400u}) {
    SCOPED_TRACE("shard_pts=" + std::to_string(shard_pts));
    ShardedApt split = BinNumericColumns(SplitApt(fx.apt, shard_pts), 4);
    ASSERT_EQ(split.shards.size(), (400 + shard_pts - 1) / shard_pts);
    Rng rng2(3);
    auto table = et.Build(split, fx.outcome, &rng2);
    ASSERT_EQ(table.size(), whole.size());
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(table[i].pattern.Describe(split.schema_table()),
                whole[i].pattern.Describe(binned.schema_table()));
      EXPECT_EQ(table[i].count, whole[i].count);
      EXPECT_EQ(table[i].outcome_rate, whole[i].outcome_rate);
      EXPECT_EQ(table[i].gain, whole[i].gain);
    }
  }
}

Table MakeSeries() {
  Table t("result", Schema({{"season", DataType::kString},
                            {"win", DataType::kInt64}}));
  // Rising trend with one high outlier (index 3) and one low dip (index 1).
  int64_t wins[] = {20, 10, 30, 60, 38, 45};
  const char* seasons[] = {"s0", "s1", "s2", "s3", "s4", "s5"};
  for (int i = 0; i < 6; ++i) {
    (void)t.AppendRow({Value(seasons[i]), Value(wins[i])});
  }
  return t;
}

TEST(CapeTest, HighOutlierGetsLowCounterbalances) {
  Table series = MakeSeries();
  Cape cape;
  auto result = cape.Explain(series, "win", Where({{"season", Value("s3")}}),
                             CapeDirection::kHigh, 3)
                    .ValueOrDie();
  ASSERT_FALSE(result.empty());
  // All counterbalances lie below the trend.
  for (const auto& e : result) {
    EXPECT_LT(e.residual, 0.0);
  }
  // The deepest dip (s1) ranks first.
  EXPECT_NE(result[0].tuple.find("s1"), std::string::npos);
}

TEST(CapeTest, LowOutlierGetsHighCounterbalances) {
  Table series = MakeSeries();
  Cape cape;
  auto result = cape.Explain(series, "win", Where({{"season", Value("s1")}}),
                             CapeDirection::kLow, 3)
                    .ValueOrDie();
  ASSERT_FALSE(result.empty());
  for (const auto& e : result) {
    EXPECT_GT(e.residual, 0.0);
  }
  EXPECT_NE(result[0].tuple.find("s3"), std::string::npos);
}

TEST(CapeTest, ErrorsOnBadInputs) {
  Table series = MakeSeries();
  Cape cape;
  EXPECT_FALSE(cape.Explain(series, "nope", Where({{"season", Value("s1")}}),
                            CapeDirection::kLow)
                   .ok());
  EXPECT_FALSE(cape.Explain(series, "win", Where({{"season", Value("zz")}}),
                            CapeDirection::kLow)
                   .ok());
  Table tiny("r", Schema({{"a", DataType::kString}, {"v", DataType::kInt64}}));
  (void)tiny.AppendRow({Value("x"), Value(int64_t{1})});
  EXPECT_FALSE(
      cape.Explain(tiny, "v", Where({{"a", Value("x")}}), CapeDirection::kLow)
          .ok());
}

}  // namespace
}  // namespace cajade
