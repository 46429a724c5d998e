// Differential tests: the kernel-routed ExecuteSpj against the seed's
// tuple-key oracle (ReferenceExecuteSpj), plus HashEquiJoin against
// ReferenceHashEquiJoin. The two executors may order working rows
// differently when the stats-driven planner reorders joins, so parity is
// checked on the multiset of source-row tuples. Runs in every CI leg,
// including ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/executor.h"
#include "src/exec/join.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

/// Working rows as sorted (alias0 row, alias1 row, ...) tuples: the
/// order-insensitive fingerprint of an SPJ result.
std::vector<std::vector<int64_t>> RowTuples(const SpjOutput& out) {
  std::vector<std::vector<int64_t>> rows(out.table.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].reserve(out.source_rows.size());
    for (const auto& sr : out.source_rows) rows[r].push_back(sr[r]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectSpjParity(const QueryExecutor& exec, const std::string& sql,
                     int expect_rows = -1) {
  auto q = ParseQuery(sql).ValueOrDie();
  SpjOutput typed = exec.ExecuteSpj(q).ValueOrDie();
  SpjOutput ref = ReferenceExecuteSpj(*exec.db(), q).ValueOrDie();
  EXPECT_EQ(RowTuples(typed), RowTuples(ref)) << sql;
  if (expect_rows >= 0) {
    EXPECT_EQ(typed.table.num_rows(), static_cast<size_t>(expect_rows)) << sql;
  }
}

constexpr int64_t kBig = int64_t{1} << 53;  // doubles collapse above this

TEST(ExecutorDiffTest, CrossTypeKeysBeyondDoublePrecision) {
  // INT64 = DOUBLE keys around 2^53, the PR 1 hash bug class: equality must
  // be exact, so an int only matches a double holding exactly that integer.
  Database db;
  {
    auto t = db.CreateTable("l", Schema({{"k", DataType::kInt64}})).ValueOrDie();
    t->AppendRow({Value(kBig)});
    t->AppendRow({Value(kBig + 1)});  // not representable as double
    t->AppendRow({Value(kBig + 2)});
    t->AppendRow({Value(int64_t{5})});
  }
  {
    auto t = db.CreateTable("r", Schema({{"d", DataType::kDouble}})).ValueOrDie();
    t->AppendRow({Value(static_cast<double>(kBig))});      // == kBig exactly
    t->AppendRow({Value(static_cast<double>(kBig + 2))});  // == kBig + 2
    t->AppendRow({Value(5.0)});
    t->AppendRow({Value(5.5)});
    t->AppendRow({Value::Null()});
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT count(*) AS n FROM l, r WHERE l.k = r.d")
               .ValueOrDie();
  // kBig, kBig+2, and 5 each match exactly one double; kBig+1 matches none.
  SpjOutput typed = exec.ExecuteSpj(q).ValueOrDie();
  EXPECT_EQ(RowTuples(typed), (std::vector<std::vector<int64_t>>{
                                  {0, 0}, {2, 1}, {3, 2}}));
  // The oracle keeps the seed's Value::Compare semantics, which widen INT64
  // to double — so it (wrongly) also matches kBig+1 against double(kBig).
  // This collapse is exactly the bug class the typed path fixes; the oracle
  // documents the seed behavior rather than the correct one here.
  SpjOutput ref = ReferenceExecuteSpj(*exec.db(), q).ValueOrDie();
  EXPECT_EQ(ref.table.num_rows(), 4u);
}

TEST(ExecutorDiffTest, Int64KeysBeyondDoublePrecisionStayDistinct) {
  // INT64 = INT64 with values differing only beyond 2^53: the packed
  // offset key must keep them apart.
  Database db;
  for (const char* name : {"l", "r"}) {
    auto t = db.CreateTable(name, Schema({{"k", DataType::kInt64}})).ValueOrDie();
    t->AppendRow({Value(kBig)});
    t->AppendRow({Value(kBig + 1)});
    t->AppendRow({Value(kBig + 2)});
  }
  QueryExecutor exec(&db);
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM l, r WHERE l.k = r.k", 3);
}

TEST(ExecutorDiffTest, DictionaryStringKeys) {
  // Vocabularies overlap partially; probe-only values exercise the
  // remap-miss path, build-only values dangle.
  Database db;
  {
    auto t = db.CreateTable("l", Schema({{"s", DataType::kString}})).ValueOrDie();
    for (const char* v : {"a", "b", "c", "probe_only", "b"}) t->AppendRow({Value(v)});
    t->AppendRow({Value::Null()});
  }
  {
    auto t = db.CreateTable("r", Schema({{"s", DataType::kString}})).ValueOrDie();
    for (const char* v : {"b", "build_only", "a", "b"}) t->AppendRow({Value(v)});
    t->AppendRow({Value::Null()});
  }
  QueryExecutor exec(&db);
  // a:1x1, b:2x2 -> 5 matches; nulls and one-sided values match nothing.
  // The probe dictionary remaps into the build (r) code space; here the
  // build dictionary is the smaller one.
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM l, r WHERE l.s = r.s", 5);
  // And a build dictionary larger than the probe side's.
  {
    auto t = db.CreateTable("rbig", Schema({{"s", DataType::kString}})).ValueOrDie();
    for (const char* v : {"a", "b", "x0", "x1", "x2", "x3", "x4", "x5", "a"}) {
      t->AppendRow({Value(v)});
    }
  }
  // a:1x2, b:2x1 -> 4 matches.
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM l, rbig WHERE l.s = rbig.s",
                  4);
}

TEST(ExecutorDiffTest, EmptyBuildSide) {
  Database db;
  {
    auto t = db.CreateTable("l", Schema({{"k", DataType::kInt64}})).ValueOrDie();
    t->AppendRow({Value(int64_t{1})});
    t->AppendRow({Value(int64_t{2})});
  }
  {
    auto t = db.CreateTable("r", Schema({{"k", DataType::kInt64},
                                         {"v", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{10})});
  }
  QueryExecutor exec(&db);
  // Pushdown empties r before the join.
  ExpectSpjParity(exec,
                  "SELECT count(*) AS n FROM l, r WHERE l.k = r.k AND r.v < 0",
                  0);
  // And an all-NULL build key column (no scannable range) is also empty.
  {
    auto t = db.CreateTable("rn", Schema({{"k", DataType::kInt64}})).ValueOrDie();
    t->AppendRow({Value::Null()});
    t->AppendRow({Value::Null()});
  }
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM l, rn WHERE l.k = rn.k", 0);
}

TEST(ExecutorDiffTest, SelfJoinAliases) {
  // Both aliases resolve to the same Table object: the dictionary fast path
  // must recognize the shared dictionary (identity remap) and INT64 packing
  // must tolerate probe == build columns.
  Database db;
  {
    auto t = db.CreateTable("t", Schema({{"k", DataType::kInt64},
                                         {"s", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value("x")});
    t->AppendRow({Value(int64_t{1}), Value("y")});
    t->AppendRow({Value(int64_t{2}), Value("x")});
    t->AppendRow({Value::Null(), Value("x")});
  }
  QueryExecutor exec(&db);
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM t a, t b WHERE a.k = b.k", 5);
  ExpectSpjParity(exec, "SELECT count(*) AS n FROM t a, t b WHERE a.s = b.s", 10);
  ExpectSpjParity(
      exec, "SELECT count(*) AS n FROM t a, t b WHERE a.k = b.k AND a.s = b.s",
      3);
}

TEST(ExecutorDiffTest, MultiColumnPackedAndOverflowingKeys) {
  // Small ranges pack into one composite key (dense or flat); near-full-span
  // ranges overflow 64 bits and must fall back to hash+verify — both have to
  // agree with the oracle.
  Database db;
  {
    auto t = db.CreateTable("l", Schema({{"a", DataType::kInt64},
                                         {"b", DataType::kInt64},
                                         {"w", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{100}), Value(int64_t{1} << 62)});
    t->AppendRow({Value(int64_t{2}), Value(int64_t{200}), Value(-(int64_t{1} << 62))});
    t->AppendRow({Value(int64_t{1}), Value(int64_t{200}), Value(int64_t{7})});
    t->AppendRow({Value(int64_t{1}), Value::Null(), Value(int64_t{7})});
  }
  {
    auto t = db.CreateTable("r", Schema({{"a", DataType::kInt64},
                                         {"b", DataType::kInt64},
                                         {"w", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{100}), Value(int64_t{1} << 62)});
    t->AppendRow({Value(int64_t{1}), Value(int64_t{200}), Value(-(int64_t{1} << 62))});
    t->AppendRow({Value(int64_t{2}), Value(int64_t{200}), Value(int64_t{7})});
    t->AppendRow({Value::Null(), Value(int64_t{100}), Value(int64_t{7})});
  }
  QueryExecutor exec(&db);
  // Packed two-column key, small ranges.
  ExpectSpjParity(
      exec, "SELECT count(*) AS n FROM l, r WHERE l.a = r.a AND l.b = r.b", 3);
  // w spans nearly the whole int64 range twice over: 64-bit packing is
  // impossible, the generic path must kick in.
  ExpectSpjParity(
      exec, "SELECT count(*) AS n FROM l, r WHERE l.a = r.a AND l.w = r.w", 1);
}

TEST(ExecutorDiffTest, ThreeWayJoinWithMultiAliasProbeKeys) {
  // The middle join step probes keys drawn from two different bound aliases,
  // which the pair-based HashEquiJoin interface cannot express.
  Database db;
  {
    auto t = db.CreateTable("a", Schema({{"x", DataType::kInt64}})).ValueOrDie();
    for (int64_t v : {1, 2, 3}) t->AppendRow({Value(v)});
  }
  {
    auto t = db.CreateTable("b", Schema({{"x", DataType::kInt64},
                                         {"y", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{10})});
    t->AppendRow({Value(int64_t{2}), Value(int64_t{20})});
    t->AppendRow({Value(int64_t{3}), Value(int64_t{10})});
  }
  {
    auto t = db.CreateTable("c", Schema({{"x", DataType::kInt64},
                                         {"y", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{10})});
    t->AppendRow({Value(int64_t{3}), Value(int64_t{20})});
    t->AppendRow({Value(int64_t{3}), Value(int64_t{10})});
  }
  QueryExecutor exec(&db);
  ExpectSpjParity(exec,
                  "SELECT count(*) AS n FROM a, b, c "
                  "WHERE a.x = b.x AND a.x = c.x AND b.y = c.y",
                  2);
}

// ---- Randomized parity sweep ----------------------------------------------

Table* AddRandomTable(Database* db, const char* name, size_t rows,
                      int64_t key_range, int64_t key_offset, int vocab,
                      Rng* rng) {
  auto t = db->CreateTable(name, Schema({{"k", DataType::kInt64},
                                         {"d", DataType::kDouble},
                                         {"s", DataType::kString},
                                         {"m", DataType::kInt64}}))
               .ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    // ~10% nulls per column; doubles are often integral so the cross-type
    // INT64 = DOUBLE comparison has real matches to find.
    row.push_back(
        rng->NextBounded(10) == 0
            ? Value::Null()
            : Value(key_offset +
                    static_cast<int64_t>(rng->NextBounded(key_range))));
    row.push_back(rng->NextBounded(10) == 0
                      ? Value::Null()
                      : (rng->NextBounded(2) == 0
                             ? Value(static_cast<double>(rng->NextBounded(key_range)))
                             : Value(rng->UniformDouble() * key_range)));
    row.push_back(rng->NextBounded(10) == 0
                      ? Value::Null()
                      : Value("v" + std::to_string(rng->NextBounded(vocab))));
    row.push_back(rng->NextBounded(10) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng->NextBounded(4))));
    (void)t->AppendRow(row);
  }
  return t.get();
}

TEST(ExecutorDiffTest, RandomizedParitySweep) {
  const char* queries[] = {
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.d",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.s = b.s",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k AND a.s = b.s",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k AND a.m = b.m",
      "SELECT count(*) AS n FROM t0 a, t1 b "
      "WHERE a.k = b.k AND a.s = b.s AND a.m = b.m",
      "SELECT count(*) AS n FROM t0 a, t1 b, t2 c "
      "WHERE a.k = b.k AND b.s = c.s",
      "SELECT count(*) AS n FROM t0 a, t1 b, t2 c "
      "WHERE a.k = b.k AND a.m = c.m AND b.m = c.k",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k AND a.d > 0.25",
      // Pushdown on the build alias: each join step indexes a dense or a
      // sparse subset of b's rows.
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k AND b.d > 0.25",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.k = b.k AND b.d < 0.05",
      "SELECT count(*) AS n FROM t0 a, t1 b WHERE a.s = b.s AND b.d < 0.05",
      "SELECT count(*) AS n FROM t0 a, t1 b "
      "WHERE a.k = b.k AND a.m = b.m AND b.d > 0.25",
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Database db;
    // Mixed shapes: t0 small+dense keys, t1 offset range (partial overlap),
    // t2 sparse keys so the dense/flat/packed layout choices all trigger
    // across seeds.
    AddRandomTable(&db, "t0", 60, 16, 0, 6, &rng);
    AddRandomTable(&db, "t1", 90, 24, 8, 9, &rng);
    AddRandomTable(&db, "t2", 40, 1000000007, 0, 4, &rng);
    QueryExecutor exec(&db);
    for (const char* sql : queries) {
      ExpectSpjParity(exec, sql);
    }
  }
}

TEST(HashEquiJoinTest, MatchesReferenceOnRowSubsets) {
  // HashEquiJoin with non-trivial row-id subsets on both sides (the
  // executor always indexes pushdown survivors, not full tables) against
  // the reference join.
  Rng rng(7);
  Database db;
  AddRandomTable(&db, "t0", 80, 12, 0, 5, &rng);
  AddRandomTable(&db, "t1", 70, 12, 4, 5, &rng);
  auto left = db.GetTable("t0").ValueOrDie();
  auto right = db.GetTable("t1").ValueOrDie();
  std::vector<int64_t> lrows, rrows;
  for (size_t r = 0; r < left->num_rows(); ++r) {
    if (rng.NextBounded(3) != 0) lrows.push_back(static_cast<int64_t>(r));
  }
  for (size_t r = 0; r < right->num_rows(); ++r) {
    if (rng.NextBounded(3) != 0) rrows.push_back(static_cast<int64_t>(r));
  }
  for (const JoinKeySpec& keys :
       {JoinKeySpec{{0}, {0}}, JoinKeySpec{{2}, {2}}, JoinKeySpec{{0, 2}, {0, 2}},
        JoinKeySpec{{0}, {1}}, JoinKeySpec{{0, 3}, {3, 0}}}) {
    auto got = HashEquiJoin(*left, lrows, *right, rrows, keys);
    auto want = ReferenceHashEquiJoin(*left, lrows, *right, rrows, keys);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace cajade
