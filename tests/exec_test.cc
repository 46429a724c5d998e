// Tests for the execution engine: evaluator, joins, aggregation, provenance
// partitions. Join results are cross-checked against a nested-loop reference.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "src/exec/evaluator.h"
#include "src/exec/executor.h"
#include "src/exec/join.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"
#include "tests/oracles/oracles.h"

namespace cajade {
namespace {

Schema MakeSchema(std::vector<ColumnDef> defs) { return Schema(std::move(defs)); }

Database MakeSalesDb() {
  Database db;
  {
    auto t = db.CreateTable("product", MakeSchema({{"pid", DataType::kInt64},
                                                   {"category", DataType::kString},
                                                   {"price", DataType::kDouble}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value("toy"), Value(9.5)});
    t->AppendRow({Value(int64_t{2}), Value("toy"), Value(20.0)});
    t->AppendRow({Value(int64_t{3}), Value("food"), Value(3.0)});
    t->AppendRow({Value(int64_t{4}), Value("food"), Value(5.5)});
  }
  {
    auto t = db.CreateTable("sale", MakeSchema({{"sid", DataType::kInt64},
                                                {"pid", DataType::kInt64},
                                                {"qty", DataType::kInt64},
                                                {"region", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{100}), Value(int64_t{1}), Value(int64_t{2}), Value("east")});
    t->AppendRow({Value(int64_t{101}), Value(int64_t{1}), Value(int64_t{1}), Value("west")});
    t->AppendRow({Value(int64_t{102}), Value(int64_t{2}), Value(int64_t{5}), Value("east")});
    t->AppendRow({Value(int64_t{103}), Value(int64_t{3}), Value(int64_t{4}), Value("west")});
    t->AppendRow({Value(int64_t{104}), Value(int64_t{9}), Value(int64_t{7}), Value("east")});
  }
  return db;
}

TEST(EvaluatorTest, LiteralAndArithmetic) {
  Table t("empty", MakeSchema({{"x", DataType::kInt64}}));
  t.AppendRow({Value(int64_t{10})});
  auto e = ParseExpression("2 + 3 * 4").ValueOrDie();
  EXPECT_EQ(EvalExpr(*e, t, 0).ValueOrDie(), Value(int64_t{14}));
  e = ParseExpression("7 / 2").ValueOrDie();
  EXPECT_EQ(EvalExpr(*e, t, 0).ValueOrDie(), Value(3.5));  // div is double
}

TEST(EvaluatorTest, ColumnRefAndComparison) {
  Table t("t", MakeSchema({{"x", DataType::kInt64}, {"s", DataType::kString}}));
  t.AppendRow({Value(int64_t{10}), Value("hi")});
  auto scope = BindScope::ForTable(t, "t");
  auto e = ParseExpression("x >= 10 AND s = 'hi'").ValueOrDie();
  ASSERT_TRUE(BindExpr(e.get(), scope).ok());
  EXPECT_TRUE(IsTruthy(EvalExpr(*e, t, 0).ValueOrDie()));
  e = ParseExpression("t.x < 10").ValueOrDie();
  ASSERT_TRUE(BindExpr(e.get(), scope).ok());
  EXPECT_FALSE(IsTruthy(EvalExpr(*e, t, 0).ValueOrDie()));
}

TEST(EvaluatorTest, NullPropagation) {
  Table t("t", MakeSchema({{"x", DataType::kInt64}}));
  t.AppendRow({Value::Null()});
  auto scope = BindScope::ForTable(t, "t");
  auto e = ParseExpression("x + 1").ValueOrDie();
  ASSERT_TRUE(BindExpr(e.get(), scope).ok());
  EXPECT_TRUE(EvalExpr(*e, t, 0).ValueOrDie().is_null());
  // Comparisons with null are null, hence not truthy.
  e = ParseExpression("x = 0").ValueOrDie();
  ASSERT_TRUE(BindExpr(e.get(), scope).ok());
  EXPECT_FALSE(IsTruthy(EvalExpr(*e, t, 0).ValueOrDie()));
}

TEST(EvaluatorTest, UnknownColumnBindsToError) {
  Table t("t", MakeSchema({{"x", DataType::kInt64}}));
  auto scope = BindScope::ForTable(t, "t");
  auto e = ParseExpression("nope = 1").ValueOrDie();
  EXPECT_FALSE(BindExpr(e.get(), scope).ok());
}

TEST(HashJoinTest, MatchesNestedLoopReference) {
  Database db = MakeSalesDb();
  auto product = db.GetTable("product").ValueOrDie();
  auto sale = db.GetTable("sale").ValueOrDie();
  std::vector<int64_t> all_p(product->num_rows()), all_s(sale->num_rows());
  for (size_t i = 0; i < all_p.size(); ++i) all_p[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < all_s.size(); ++i) all_s[i] = static_cast<int64_t>(i);
  JoinKeySpec keys;
  keys.left_cols = {0};   // product.pid
  keys.right_cols = {1};  // sale.pid
  auto pairs = HashEquiJoin(*product, all_p, *sale, all_s, keys);

  std::set<std::pair<int64_t, int64_t>> expected;
  for (int64_t p : all_p) {
    for (int64_t s : all_s) {
      if (product->GetValue(p, 0) == sale->GetValue(s, 1)) {
        expected.insert({p, s});
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> actual(pairs.begin(), pairs.end());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(actual.size(), 4u);  // sale 104 dangles
}

TEST(HashJoinTest, ProbeOrderPreserved) {
  Database db = MakeSalesDb();
  auto product = db.GetTable("product").ValueOrDie();
  auto sale = db.GetTable("sale").ValueOrDie();
  std::vector<int64_t> all_s(sale->num_rows());
  for (size_t i = 0; i < all_s.size(); ++i) all_s[i] = static_cast<int64_t>(i);
  std::vector<int64_t> all_p(product->num_rows());
  for (size_t i = 0; i < all_p.size(); ++i) all_p[i] = static_cast<int64_t>(i);
  JoinKeySpec keys;
  keys.left_cols = {1};
  keys.right_cols = {0};
  auto pairs = HashEquiJoin(*sale, all_s, *product, all_p, keys);
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LE(pairs[i - 1].first, pairs[i].first);
  }
}

TEST(ExecutorTest, FilterAndProject) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT pid, price FROM product WHERE price > 5").ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  EXPECT_EQ(result.num_rows(), 3u);
  EXPECT_EQ(result.schema().column(0).name, "pid");
}

TEST(ExecutorTest, JoinAggregateGroupBy) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT p.category, sum(s.qty) AS total "
               "FROM product p, sale s WHERE p.pid = s.pid "
               "GROUP BY p.category")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 2u);
  // Insertion order: toy first (sale rows 100..102 hit toys first).
  EXPECT_EQ(result.GetValue(0, 0), Value("toy"));
  EXPECT_EQ(result.GetValue(0, 1), Value(int64_t{8}));
  EXPECT_EQ(result.GetValue(1, 0), Value("food"));
  EXPECT_EQ(result.GetValue(1, 1), Value(int64_t{4}));
}

TEST(ExecutorTest, CountStarAndAvg) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT category, count(*) AS n, avg(price) AS ap "
               "FROM product GROUP BY category")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.GetValue(0, 1), Value(int64_t{2}));
  EXPECT_NEAR(result.GetValue(0, 2).ToDouble(), 14.75, 1e-9);
  EXPECT_NEAR(result.GetValue(1, 2).ToDouble(), 4.25, 1e-9);
}

TEST(ExecutorTest, MinMax) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT min(price) AS lo, max(price) AS hi FROM product")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.GetValue(0, 0), Value(3.0));
  EXPECT_EQ(result.GetValue(0, 1), Value(20.0));
}

TEST(ExecutorTest, ArithmeticOverAggregates) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT region, 1.0 * sum(qty) / count(*) AS avg_qty "
               "FROM sale GROUP BY region")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 2u);
  // east: (2+5+7)/3, west: (1+4)/2
  EXPECT_NEAR(result.GetValue(0, 1).ToDouble(), 14.0 / 3, 1e-9);
  EXPECT_NEAR(result.GetValue(1, 1).ToDouble(), 2.5, 1e-9);
}

TEST(ExecutorTest, ProvenancePartitionsCoverJoinResult) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT p.category, count(*) AS n FROM product p, sale s "
               "WHERE p.pid = s.pid GROUP BY p.category")
               .ValueOrDie();
  QueryOutput out = exec.ExecuteWithProvenance(q).ValueOrDie();
  // Working table has product + sale columns with alias prefixes.
  EXPECT_EQ(out.spj.table.num_columns(), 7u);
  EXPECT_EQ(out.spj.table.num_rows(), 4u);
  size_t total = 0;
  for (const auto& rows : out.group_rows) total += rows.size();
  EXPECT_EQ(total, out.spj.table.num_rows());
  // Each group's count matches its provenance size.
  for (size_t g = 0; g < out.group_rows.size(); ++g) {
    EXPECT_EQ(out.result.GetValue(g, 1).AsInt(),
              static_cast<int64_t>(out.group_rows[g].size()));
  }
  // group-by output column detected.
  ASSERT_EQ(out.group_by_output_cols.size(), 1u);
  EXPECT_EQ(out.group_by_output_cols[0], 0);
}

TEST(ExecutorTest, CrossProductWhenNoJoinPredicate) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT count(*) AS n FROM product p, sale s").ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  EXPECT_EQ(result.GetValue(0, 0), Value(int64_t{20}));
}

TEST(ExecutorTest, EmptyGroupByResult) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT category, count(*) AS n FROM product WHERE price > 1000 "
               "GROUP BY category")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  EXPECT_EQ(result.num_rows(), 0u);
}

/// `n` copies of `term` joined by `op`.
std::string Chain(const std::string& term, const std::string& op, size_t n) {
  std::string s = term;
  for (size_t i = 1; i < n; ++i) s += op + term;
  return s;
}

TEST(ExecutorTest, DeepExpressionsFailToParseAndTheLimitExecutes) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  // These used to parse and then overflow the stack in Execute.
  for (const std::string& sql :
       {"SELECT " + Chain("qty", " + ", 100000) + " AS s FROM sale",
        "SELECT qty FROM sale WHERE " + Chain("qty > 0", " AND ", 100000)}) {
    auto q = ParseQuery(sql);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  }
  // Exactly kMaxExprDepth levels on both sides: `qty > 0` is two levels.
  auto q = ParseQuery("SELECT " + Chain("qty", " + ", kMaxExprDepth) +
                      " AS s FROM sale WHERE " +
                      Chain("qty > 0", " AND ", kMaxExprDepth - 1));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  Table result = exec.Execute(*q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 5u);
  EXPECT_EQ(result.GetValue(0, 0),
            Value(static_cast<int64_t>(2 * kMaxExprDepth)));  // qty = 2
}

TEST(ExecutorTest, UnknownTableFails) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT x FROM missing").ValueOrDie();
  EXPECT_FALSE(exec.Execute(q).ok());
}

TEST(ExecutorTest, AmbiguousColumnFails) {
  Database db = MakeSalesDb();
  QueryExecutor exec(&db);
  // pid exists in both product and sale.
  auto q = ParseQuery("SELECT pid FROM product p, sale s WHERE p.pid = s.pid")
               .ValueOrDie();
  EXPECT_FALSE(exec.Execute(q).ok());
}

TEST(ExecutorTest, NullJoinKeysNeverMatch) {
  // NULL keys on both the build and probe side, single-column INT64 key:
  // NULL never matches anything, including another NULL (SQL semantics the
  // seed's tuple-key path enforced by dropping NULL keys on both sides).
  Database db;
  {
    auto t = db.CreateTable("l", MakeSchema({{"k", DataType::kInt64},
                                             {"tag", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value("l1")});
    t->AppendRow({Value::Null(), Value("lnull")});
    t->AppendRow({Value(int64_t{3}), Value("l3")});
  }
  {
    auto t = db.CreateTable("r", MakeSchema({{"k", DataType::kInt64},
                                             {"tag", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value::Null(), Value("rnull")});
    t->AppendRow({Value(int64_t{1}), Value("r1")});
    t->AppendRow({Value::Null(), Value("rnull2")});
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT count(*) AS n FROM l, r WHERE l.k = r.k")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  EXPECT_EQ(result.GetValue(0, 0), Value(int64_t{1}));  // only l1-r1
}

TEST(ExecutorTest, NullInMiddleColumnOfMultiColumnKey) {
  // Three-column composite key with a NULL in the middle column: the row
  // must not match even though the first and last columns agree, and NULL
  // vs NULL in that position must not match either.
  Database db;
  {
    auto t = db.CreateTable("a", MakeSchema({{"x", DataType::kInt64},
                                             {"y", DataType::kInt64},
                                             {"z", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{10}), Value("p")});
    t->AppendRow({Value(int64_t{2}), Value::Null(), Value("p")});
    t->AppendRow({Value(int64_t{3}), Value(int64_t{30}), Value("q")});
  }
  {
    auto t = db.CreateTable("b", MakeSchema({{"x", DataType::kInt64},
                                             {"y", DataType::kInt64},
                                             {"z", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value(int64_t{1}), Value(int64_t{10}), Value("p")});  // match
    t->AppendRow({Value(int64_t{2}), Value::Null(), Value("p")});      // NULL = NULL: no
    t->AppendRow({Value(int64_t{3}), Value::Null(), Value("q")});      // NULL vs 30: no
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT count(*) AS n FROM a, b "
               "WHERE a.x = b.x AND a.y = b.y AND a.z = b.z")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  EXPECT_EQ(result.GetValue(0, 0), Value(int64_t{1}));
  // The typed path must agree with the tuple-key oracle.
  QueryOutput out = exec.ExecuteWithProvenance(q).ValueOrDie();
  SpjOutput ref = ReferenceExecuteSpj(*exec.db(), q).ValueOrDie();
  EXPECT_EQ(out.spj.table.num_rows(), ref.table.num_rows());
}

TEST(ExecutorTest, GroupEmissionIsFirstSeenOrder) {
  // Result rows must come out in first-seen order of the group key in the
  // working table, not in hash-container order.
  Database db;
  {
    auto t = db.CreateTable("ev", MakeSchema({{"cat", DataType::kString},
                                              {"v", DataType::kInt64}}))
                 .ValueOrDie();
    const char* cats[] = {"delta", "alpha", "zeta", "alpha", "beta",
                          "delta", "gamma", "beta", "epsilon"};
    for (int i = 0; i < 9; ++i) {
      t->AppendRow({Value(cats[i]), Value(static_cast<int64_t>(i))});
    }
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT cat, count(*) AS n FROM ev GROUP BY cat")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 6u);
  const char* expected[] = {"delta", "alpha", "zeta", "beta", "gamma",
                            "epsilon"};
  for (size_t g = 0; g < 6; ++g) {
    EXPECT_EQ(result.GetValue(g, 0), Value(expected[g])) << "group " << g;
  }
}

TEST(ExecutorTest, NullsFormOneGroup) {
  // GROUP BY semantics differ from join semantics: NULL keys group together.
  Database db;
  {
    auto t = db.CreateTable("ev", MakeSchema({{"cat", DataType::kString},
                                              {"v", DataType::kInt64}}))
                 .ValueOrDie();
    t->AppendRow({Value("a"), Value(int64_t{1})});
    t->AppendRow({Value::Null(), Value(int64_t{2})});
    t->AppendRow({Value("a"), Value(int64_t{3})});
    t->AppendRow({Value::Null(), Value(int64_t{4})});
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery("SELECT cat, count(*) AS n FROM ev GROUP BY cat")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.GetValue(0, 1), Value(int64_t{2}));  // "a"
  EXPECT_EQ(result.GetValue(1, 1), Value(int64_t{2}));  // NULL group
  EXPECT_TRUE(result.GetValue(1, 0).is_null());
}

TEST(ExecutorTest, ThreeWayJoinChain) {
  Database db = MakeSalesDb();
  {
    auto t = db.CreateTable("region_info",
                            MakeSchema({{"region", DataType::kString},
                                        {"manager", DataType::kString}}))
                 .ValueOrDie();
    t->AppendRow({Value("east"), Value("alice")});
    t->AppendRow({Value("west"), Value("bob")});
  }
  QueryExecutor exec(&db);
  auto q = ParseQuery(
               "SELECT r.manager, count(*) AS n "
               "FROM product p, sale s, region_info r "
               "WHERE p.pid = s.pid AND s.region = r.region "
               "GROUP BY r.manager")
               .ValueOrDie();
  Table result = exec.Execute(q).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.GetValue(0, 1), Value(int64_t{2}));  // alice: sales 100,102
  EXPECT_EQ(result.GetValue(1, 1), Value(int64_t{2}));  // bob: 101,103
}

TEST(ExecutorTest, ConcurrentQueriesShareOneExecutor) {
  // b and c have equal sizes, so Q2's planner breaks the tie on b's and c's
  // full statistics while Q1 builds its join index on b from b's range
  // statistics. Sharing one executor (and its statistics catalog) must give
  // each query its serial answer; under TSan this is the catalog's race
  // check.
  Database db;
  auto a = db.CreateTable("a", MakeSchema({{"k", DataType::kInt64},
                                           {"v", DataType::kInt64}}))
               .ValueOrDie();
  auto b = db.CreateTable("b", MakeSchema({{"k", DataType::kInt64},
                                           {"x", DataType::kString}}))
               .ValueOrDie();
  auto c = db.CreateTable("c", MakeSchema({{"k", DataType::kInt64},
                                           {"y", DataType::kString}}))
               .ValueOrDie();
  for (int64_t i = 0; i < 200; ++i) {
    a->AppendRow({Value(i % 40), Value(i)});
  }
  for (int64_t i = 0; i < 64; ++i) {
    b->AppendRow({Value(i % 32), Value(i % 3 == 0 ? "p" : "q")});
    c->AppendRow({Value(i % 16), Value(i % 5 == 0 ? "r" : "s")});
  }
  const ParsedQuery q1 = ParseQuery(
                             "SELECT b.x, count(*) AS n FROM a, b "
                             "WHERE a.k = b.k GROUP BY b.x")
                             .ValueOrDie();
  const ParsedQuery q2 = ParseQuery(
                             "SELECT b.x, c.y, count(*) AS n FROM a, b, c "
                             "WHERE a.k = b.k AND a.k = c.k GROUP BY b.x, c.y")
                             .ValueOrDie();
  const std::string want1 = QueryExecutor(&db).Execute(q1).ValueOrDie().ToString(100);
  const std::string want2 = QueryExecutor(&db).Execute(q2).ValueOrDie().ToString(100);

  // Fresh executors, so every round's first calls compute the statistics.
  for (int round = 0; round < 20; ++round) {
    QueryExecutor exec(&db);
    std::atomic<int> ready{0};
    std::string got1, got2;
    auto run = [&](const ParsedQuery& q, std::string* got) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      *got = exec.Execute(q).ValueOrDie().ToString(100);
    };
    std::thread t1(run, std::cref(q1), &got1);
    std::thread t2(run, std::cref(q2), &got2);
    t1.join();
    t2.join();
    EXPECT_EQ(got1, want1);
    EXPECT_EQ(got2, want2);
  }
}

}  // namespace
}  // namespace cajade
