// Tests for src/stats (statistics, combined NDV caching) and
// src/provenance (PT construction, naming, partitions, group-by tracking,
// the content fingerprint). The TSan CI job runs this binary, so the
// concurrent first-fingerprint case doubles as a race detector.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/datasets/example_nba.h"
#include "src/provenance/provenance.h"
#include "src/sql/parser.h"
#include "src/stats/table_stats.h"

namespace cajade {
namespace {

Table MakeStatsTable() {
  Table t("t", Schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"s", DataType::kString}}));
  (void)t.AppendRow({Value(int64_t{1}), Value(1.5), Value("a")});
  (void)t.AppendRow({Value(int64_t{1}), Value(2.5), Value("b")});
  (void)t.AppendRow({Value(int64_t{2}), Value(2.5), Value("a")});
  (void)t.AppendRow({Value::Null(), Value::Null(), Value::Null()});
  return t;
}

TEST(TableStatsTest, NdvNullsAndRanges) {
  Table t = MakeStatsTable();
  TableStats stats = ComputeTableStats(t);
  EXPECT_EQ(stats.num_rows, 4u);
  EXPECT_EQ(stats.columns[0].ndv, 2u);
  EXPECT_EQ(stats.columns[1].ndv, 2u);
  EXPECT_EQ(stats.columns[2].ndv, 2u);
  for (const ColumnStats& cs : stats.columns) EXPECT_EQ(cs.null_count, 1u);
  ASSERT_TRUE(stats.columns[0].has_int_range);
  EXPECT_EQ(stats.columns[0].int_min, 1);
  EXPECT_EQ(stats.columns[0].int_max, 2);
}

TEST(TableStatsTest, ExactInt64RangeBeyondDoublePrecision) {
  // 2^53 and 2^53 + 1 collapse to the same double; the exact int range must
  // keep them apart (the join planner packs keys from these bounds).
  const int64_t big = int64_t{1} << 53;
  Table t("t", Schema({{"i", DataType::kInt64}, {"d", DataType::kDouble}}));
  (void)t.AppendRow({Value(big), Value(0.5)});
  (void)t.AppendRow({Value(big + 1), Value(1.5)});
  (void)t.AppendRow({Value(int64_t{-7}), Value::Null()});
  TableStats stats = ComputeTableStats(t);
  ASSERT_TRUE(stats.columns[0].has_int_range);
  EXPECT_EQ(stats.columns[0].int_min, -7);
  EXPECT_EQ(stats.columns[0].int_max, big + 1);
  // DOUBLE columns carry no int range.
  EXPECT_FALSE(stats.columns[1].has_int_range);
}

TEST(TableStatsTest, AllNullIntColumnHasNoRange) {
  Table t("t", Schema({{"i", DataType::kInt64}}));
  (void)t.AppendRow({Value::Null()});
  (void)t.AppendRow({Value::Null()});
  TableStats stats = ComputeTableStats(t);
  EXPECT_FALSE(stats.columns[0].has_int_range);
  EXPECT_EQ(stats.columns[0].null_count, 2u);
  EXPECT_EQ(stats.columns[0].ndv, 0u);
}

TEST(StatsCatalogTest, SnapshotsOutliveGetAndVersionBump) {
  Table t = MakeStatsTable();
  StatsCatalog catalog;
  StatsCatalog::StatsPtr a = catalog.Get(t);
  EXPECT_EQ(catalog.Get(t), a);  // same cached snapshot
  // Appending rows bumps the content version: the next Get recomputes into
  // a new snapshot and leaves the one already handed out as it was.
  (void)t.AppendRow({Value(int64_t{9}), Value(9.0), Value("z")});
  StatsCatalog::StatsPtr c = catalog.Get(t);
  EXPECT_NE(c, a);
  EXPECT_EQ(c->num_rows, 5u);
  EXPECT_EQ(c->columns[0].ndv, 3u);
  EXPECT_EQ(a->num_rows, 4u);
  EXPECT_EQ(a->columns[0].ndv, 2u);
}

TEST(StatsCatalogTest, RangeSnapshotsStayRangeOnly) {
  Table t = MakeStatsTable();
  StatsCatalog catalog;
  StatsCatalog::StatsPtr ranges = catalog.GetRanges(t);
  // Ranges carry the int range and null counts but no distinct counts.
  ASSERT_TRUE(ranges->columns[0].has_int_range);
  EXPECT_EQ(ranges->columns[0].int_min, 1);
  EXPECT_EQ(ranges->columns[0].int_max, 2);
  EXPECT_EQ(ranges->columns[0].null_count, 1u);
  EXPECT_EQ(ranges->columns[2].null_count, 1u);
  EXPECT_FALSE(ranges->columns[1].has_int_range);  // DOUBLE: no scan
  EXPECT_EQ(ranges->columns[0].ndv, 0u);
  // Full statistics are a separate snapshot: computing them leaves the
  // range snapshot, handed out or cached, unchanged.
  StatsCatalog::StatsPtr full = catalog.Get(t);
  EXPECT_NE(full, ranges);
  EXPECT_EQ(full->columns[0].ndv, 2u);
  EXPECT_EQ(ranges->columns[0].ndv, 0u);
  EXPECT_EQ(catalog.GetRanges(t), ranges);
}

TEST(StatsCatalogTest, ConcurrentFirstCallersShareOneSnapshotPerCache) {
  Table t = MakeStatsTable();
  StatsCatalog catalog;
  constexpr int kThreads = 4;
  std::vector<StatsCatalog::StatsPtr> full(kThreads), ranges(kThreads);
  std::vector<size_t> ndv(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      full[i] = catalog.Get(t);
      ranges[i] = catalog.GetRanges(t);
      ndv[i] = catalog.CombinedNdv(t, {0, 2});
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(full[i], full[0]);
    EXPECT_EQ(ranges[i], ranges[0]);
    EXPECT_EQ(ndv[i], 4u);  // (1,a) (1,b) (2,a) (NULL,NULL)
  }
  EXPECT_EQ(full[0]->columns[2].ndv, 2u);
}

TEST(StatsCatalogTest, CombinedNdvExactForCorrelatedColumns) {
  // Two columns that always move together: product-of-ndv would say 4,
  // the exact combined count is 2.
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int i = 0; i < 10; ++i) {
    int64_t v = i % 2;
    (void)t.AppendRow({Value(v), Value(v * 10)});
  }
  StatsCatalog catalog;
  EXPECT_EQ(catalog.CombinedNdv(t, {0, 1}), 2u);
  EXPECT_EQ(catalog.CombinedNdvByName(t, {"a", "b"}), 2u);
  EXPECT_EQ(catalog.CombinedNdvByName(t, {"missing"}), 1u);
}

TEST(ProvenanceTest, NameManglingMatchesAppendixConvention) {
  EXPECT_EQ(MangleRelationName("player_game_stats"), "player__game__stats");
  EXPECT_EQ(ProvenanceColumnName("player_game_stats", "minutes"),
            "prov_player__game__stats_minutes");
  EXPECT_EQ(ProvenanceColumnName("game", "season"), "prov_game_season");
}

class ProvenanceFixture : public ::testing::Test {
 protected:
  void SetUp() override { db_ = MakeExampleNbaDatabase().ValueOrDie(); }
  Database db_;
};

TEST_F(ProvenanceFixture, MultiTableProvenanceCarriesAllRelations) {
  auto query = ParseQuery(
                   "SELECT g.season, count(*) AS n "
                   "FROM game g, player_game_scoring p "
                   "WHERE g.year = p.year AND g.month = p.month AND "
                   "g.day = p.day AND g.home = p.home AND g.winner = 'GSW' "
                   "GROUP BY g.season")
                   .ValueOrDie();
  auto pt = ComputeProvenance(db_, query).ValueOrDie();
  ASSERT_EQ(pt.relations.size(), 2u);
  EXPECT_EQ(pt.relations[0], "game");
  EXPECT_EQ(pt.relations[1], "player_game_scoring");
  // Columns from both relations present with prov_ names.
  EXPECT_GE(pt.FindColumn("game", "winner"), 0);
  EXPECT_GE(pt.FindColumn("player_game_scoring", "pts"), 0);
  // Partition sizes sum to the PT size.
  size_t total = 0;
  for (const auto& rows : pt.output_to_pt_rows) total += rows.size();
  EXPECT_EQ(total, pt.table.num_rows());
  // Alias-scoped lookup.
  EXPECT_GE(pt.FindColumnForAlias("p", "pts"), 0);
  EXPECT_EQ(pt.FindColumnForAlias("zz", "pts"), -1);
  // Group-by source attributes recorded for context-copy exclusion.
  ASSERT_EQ(pt.group_by_source_attrs.size(), 1u);
  EXPECT_EQ(pt.group_by_source_attrs[0].first, "game");
  EXPECT_EQ(pt.group_by_source_attrs[0].second, "season");
}

TEST_F(ProvenanceFixture, MiningExclusionFlagsSurviveRenaming) {
  auto query =
      ParseQuery("SELECT season, count(*) AS n FROM game GROUP BY season")
          .ValueOrDie();
  auto pt = ComputeProvenance(db_, query).ValueOrDie();
  int year = pt.FindColumn("game", "year");
  ASSERT_GE(year, 0);
  EXPECT_TRUE(pt.table.schema().column(year).mining_excluded);
  int home_pts = pt.FindColumn("game", "home_pts");
  ASSERT_GE(home_pts, 0);
  EXPECT_FALSE(pt.table.schema().column(home_pts).mining_excluded);
}

using Rows = std::vector<std::vector<Value>>;

/// Ten distinct rows over (INT64, DOUBLE, STRING), NULLs in every column.
Rows FingerprintRows() {
  Rows rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back({i == 3 ? Value::Null() : Value(i * 11),
                    i == 6 ? Value::Null() : Value(i * 0.25),
                    i == 8 ? Value::Null() : Value("s" + std::to_string(i % 4))});
  }
  return rows;
}

Schema FingerprintSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
}

/// A PT whose table holds `rows`, appended cell by cell.
ProvenanceTable PtOf(const Rows& rows) {
  ProvenanceTable pt;
  pt.table = Table("PT", FingerprintSchema());
  for (const auto& row : rows) EXPECT_TRUE(pt.table.AppendRow(row).ok());
  return pt;
}

TEST(ContentFingerprintTest, GatheredAndAppendedContentsAgree) {
  // The source holds the rows in reverse order behind extra rows whose
  // strings are interned first, so the gathered STRING column reads other
  // codes of another dictionary than the appended one.
  const Rows rows = FingerprintRows();
  Table source("src", FingerprintSchema());
  ASSERT_TRUE(source.AppendRow({Value(int64_t{-1}), Value(9.5), Value("zz")}).ok());
  ASSERT_TRUE(source.AppendRow({Value(int64_t{-2}), Value(8.5), Value("s3")}).ok());
  for (size_t r = rows.size(); r-- > 0;) ASSERT_TRUE(source.AppendRow(rows[r]).ok());
  std::vector<int64_t> pick;
  for (int64_t r = 0; r < static_cast<int64_t>(rows.size()); ++r) {
    pick.push_back(static_cast<int64_t>(source.num_rows()) - 1 - r);
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    columns.push_back(source.column(c).Gather(pick));
  }
  ProvenanceTable gathered;
  gathered.table = Table("PT", FingerprintSchema(), std::move(columns), rows.size());
  ASSERT_NE(gathered.table.column(2).GetCode(0), PtOf(rows).table.column(2).GetCode(0));

  EXPECT_EQ(gathered.ContentFingerprint(), PtOf(rows).ContentFingerprint());
}

TEST(ContentFingerprintTest, EveryCellNullAndRowPositionCounts) {
  const Rows rows = FingerprintRows();
  const uint64_t base = PtOf(rows).ContentFingerprint();
  EXPECT_EQ(PtOf(rows).ContentFingerprint(), base);

  auto with = [&](size_t r, size_t c, Value v) {
    Rows changed = rows;
    changed[r][c] = std::move(v);
    return PtOf(changed).ContentFingerprint();
  };
  EXPECT_NE(with(4, 0, Value(int64_t{45})), base);  // one INT64 cell
  EXPECT_NE(with(4, 1, Value(1.0000001)), base);     // one DOUBLE cell
  EXPECT_NE(with(4, 2, Value("s9")), base);          // one STRING cell
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NE(with(0, c, Value::Null()), base) << "NULL in column " << c;
  }
  // A NULL INT64 cell is not a 0, though both hold 0 in the data vector.
  EXPECT_NE(with(3, 0, Value(int64_t{0})), base);

  // Swapped rows: neighbours (different fold lanes) and rows four apart
  // (the same lane).
  for (size_t other : {size_t{1}, size_t{4}, size_t{9}}) {
    Rows swapped = rows;
    std::swap(swapped[0], swapped[other]);
    EXPECT_NE(PtOf(swapped).ContentFingerprint(), base) << "swap 0, " << other;
  }
  Rows shorter = rows;
  shorter.pop_back();
  EXPECT_NE(PtOf(shorter).ContentFingerprint(), base);
}

TEST(ContentFingerprintTest, EqualStringsUnderDifferentDictionariesAgree) {
  const std::vector<std::string> cells = {"b", "a", "c", "a", "b"};
  Column forward(DataType::kString);
  Column backward(DataType::kString);
  for (const char* s : {"a", "b", "c", "unused"}) forward.InternString(s);
  for (const char* s : {"zz", "c", "b", "a"}) backward.InternString(s);
  for (const std::string& s : cells) {
    forward.AppendString(s);
    backward.AppendString(s);
  }
  ASSERT_NE(forward.codes(), backward.codes());
  auto pt_of = [](Column col) {
    ProvenanceTable pt;
    std::vector<Column> columns;
    columns.push_back(std::move(col));
    pt.table = Table("PT", Schema({{"s", DataType::kString}}), std::move(columns), 5);
    return pt;
  };
  EXPECT_EQ(pt_of(forward).ContentFingerprint(),
            pt_of(backward).ContentFingerprint());
}

TEST(ContentFingerprintTest, ConcurrentFirstCallsReadOneValue) {
  Rows rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({Value(i), Value(i * 0.5), Value("s" + std::to_string(i % 97))});
  }
  const ProvenanceTable pt = PtOf(rows);
  const uint64_t want = PtOf(rows).ContentFingerprint();
  std::vector<uint64_t> got(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&pt, &got, t] { got[t] = pt.ContentFingerprint(); });
  }
  for (auto& th : threads) th.join();
  for (uint64_t v : got) EXPECT_EQ(v, want);
  EXPECT_EQ(pt.ContentFingerprint(), want);
}

}  // namespace
}  // namespace cajade
