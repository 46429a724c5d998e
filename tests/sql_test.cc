// Tests for the SQL frontend: lexer, parser, expression trees.

#include <gtest/gtest.h>

#include <string>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace cajade {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE a = 'x'").ValueOrDie();
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "a");
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].text, "FROM");
  EXPECT_EQ(tokens[2].text, "WHERE");
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("12 3.5 'ab''c'").ValueOrDie();
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_EQ(tokens[0].text, "12");
  EXPECT_EQ(tokens[1].text, "3.5");
  EXPECT_EQ(tokens[2].type, TokenType::kString);
  EXPECT_EQ(tokens[2].text, "ab'c");
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("<= >= <> !=").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "<=");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "<>");
  EXPECT_EQ(tokens[3].text, "<>");  // != normalized
}

TEST(LexerTest, LineComments) {
  auto tokens = Tokenize("a -- comment\n b").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, UnexpectedCharFails) {
  EXPECT_FALSE(Tokenize("a ; b").ok());
}

TEST(ParserTest, MinimalQuery) {
  auto q = ParseQuery("SELECT a FROM t").ValueOrDie();
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].name, "a");
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0].table_name, "t");
  EXPECT_EQ(q.from[0].alias, "t");
  EXPECT_EQ(q.where, nullptr);
  EXPECT_TRUE(q.group_by.empty());
}

TEST(ParserTest, PaperQueryQ1) {
  auto q = ParseQuery(
               "SELECT winner as team, season, count(*) as win "
               "FROM Game g WHERE winner = 'GSW' GROUP BY winner, season")
               .ValueOrDie();
  ASSERT_EQ(q.select.size(), 3u);
  EXPECT_EQ(q.select[0].name, "team");
  EXPECT_EQ(q.select[1].name, "season");
  EXPECT_EQ(q.select[2].name, "win");
  EXPECT_EQ(q.select[2].expr->kind, ExprKind::kAggregate);
  EXPECT_EQ(q.select[2].expr->agg, AggFunc::kCount);
  EXPECT_EQ(q.select[2].expr->arg, nullptr);  // COUNT(*)
  EXPECT_EQ(q.from[0].alias, "g");
  ASSERT_NE(q.where, nullptr);
  ASSERT_EQ(q.group_by.size(), 2u);
}

TEST(ParserTest, MultiTableJoinQuery) {
  auto q = ParseQuery(
               "SELECT AVG(points) as avp_pts, s.season_name "
               "FROM player p, player_game_stats pgs, game g, season s "
               "WHERE p.player_id=pgs.player_id AND "
               "g.game_date = pgs.game_date AND g.home_id = pgs.home_id AND "
               "s.season_id = g.season_id AND p.player_name='Draymond Green' "
               "GROUP BY s.season_name")
               .ValueOrDie();
  EXPECT_EQ(q.from.size(), 4u);
  EXPECT_EQ(q.from[1].alias, "pgs");
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(q.where, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 5u);
}

TEST(ParserTest, ArithmeticOverAggregates) {
  auto q = ParseQuery(
               "SELECT insurance, 1.0 * sum(isdead) / count(*) AS death_rate "
               "FROM Admissions GROUP BY insurance")
               .ValueOrDie();
  ASSERT_EQ(q.select.size(), 2u);
  const Expr& e = *q.select[1].expr;
  EXPECT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.op, BinaryOp::kDiv);
  EXPECT_TRUE(e.ContainsAggregate());
  std::vector<Expr*> aggs;
  q.select[1].expr->CollectAggregates(&aggs);
  EXPECT_EQ(aggs.size(), 2u);
}

TEST(ParserTest, PrecedenceMulBeforeAdd) {
  auto e = ParseExpression("1 + 2 * 3").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kAdd);
  EXPECT_EQ(e->right->op, BinaryOp::kMul);
}

TEST(ParserTest, PrecedenceAndBeforeOr) {
  auto e = ParseExpression("a = 1 OR b = 2 AND c = 3").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kOr);
  EXPECT_EQ(e->right->op, BinaryOp::kAnd);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto e = ParseExpression("(1 + 2) * 3").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kMul);
  EXPECT_EQ(e->left->op, BinaryOp::kAdd);
}

TEST(ParserTest, OperatorsAreLeftAssociativeAndComparisonsDoNotChain) {
  EXPECT_EQ(ParseExpression("10 - 3 - 2").ValueOrDie()->ToString(),
            "((10 - 3) - 2)");
  EXPECT_EQ(ParseExpression("8 / 4 * 2").ValueOrDie()->ToString(),
            "((8 / 4) * 2)");
  auto e = ParseExpression("a OR b OR c AND d AND e").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kOr);
  EXPECT_EQ(e->left->op, BinaryOp::kOr);
  EXPECT_EQ(e->right->op, BinaryOp::kAnd);
  EXPECT_EQ(e->right->left->op, BinaryOp::kAnd);
  // A comparison takes one comparison operator; parentheses nest another.
  for (const char* chained :
       {"a = b = c", "a <= b <= c", "a < b > c", "x AND a = b = c",
        "a + b = c + d = e", "(a = b = c)"}) {
    auto r = ParseExpression(chained);
    ASSERT_FALSE(r.ok()) << chained;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << chained;
  }
  auto q = ParseQuery("SELECT a FROM t WHERE x AND a = b = c");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  e = ParseExpression("(a = b) = c").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kEq);
  EXPECT_EQ(e->left->op, BinaryOp::kEq);
  e = ParseExpression("a = b AND c <> d").ValueOrDie();
  EXPECT_EQ(e->op, BinaryOp::kAnd);
  EXPECT_EQ(e->right->op, BinaryOp::kNe);
}

TEST(ParserTest, QualifiedColumnRef) {
  auto e = ParseExpression("t.col").ValueOrDie();
  EXPECT_EQ(e->kind, ExprKind::kColumnRef);
  EXPECT_EQ(e->table, "t");
  EXPECT_EQ(e->column, "col");
}

TEST(ParserTest, BareAliasWithoutAs) {
  auto q = ParseQuery("SELECT count(*) win FROM t").ValueOrDie();
  EXPECT_EQ(q.select[0].name, "win");
}

TEST(ParserTest, GroupByMustBeColumns) {
  EXPECT_FALSE(ParseQuery("SELECT a FROM t GROUP BY 1+2").ok());
}

TEST(ParserTest, TrailingInputFails) {
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra garbage tokens").ok());
}

TEST(ParserTest, MissingFromFails) {
  EXPECT_FALSE(ParseQuery("SELECT a").ok());
}

TEST(ParserTest, LiteralsAtTheirRangeLimitsParse) {
  auto q = ParseQuery("SELECT a FROM t WHERE a = 9223372036854775807")
               .ValueOrDie();
  EXPECT_EQ(q.where->right->literal, Value(int64_t{9223372036854775807}));
  q = ParseQuery("SELECT a FROM t WHERE a = " + std::string(300, '9') + ".5")
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(q.where->right->literal.AsDouble(), 1e300);
}

TEST(ParserTest, OutOfRangeLiteralsAreRejected) {
  // Clamped, an integer literal past INT64_MAX would read as INT64_MAX and
  // a decimal one past DBL_MAX (about 1.8e308, 309 integer digits) as inf,
  // and the query would filter on a different constant.
  const std::string past_dbl_max = std::string(400, '9') + ".5";
  for (const std::string& literal :
       {std::string("99999999999999999999"),
        std::string("9223372036854775808"), past_dbl_max}) {
    SCOPED_TRACE(literal.substr(0, 24));
    auto q = ParseQuery("SELECT a FROM t WHERE a = " + literal);
    EXPECT_FALSE(q.ok());
    if (q.ok()) continue;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(q.status().message().find(literal), std::string::npos);
  }
}

TEST(ParserTest, RoundTripToString) {
  auto q = ParseQuery(
               "SELECT a, count(*) AS c FROM t x WHERE a >= 3 GROUP BY a")
               .ValueOrDie();
  std::string s = q.ToString();
  // Re-parse the rendered SQL; must produce the same structure.
  auto q2 = ParseQuery(s).ValueOrDie();
  EXPECT_EQ(q2.select.size(), q.select.size());
  EXPECT_EQ(q2.from[0].alias, "x");
  EXPECT_EQ(q2.ToString(), s);
}

TEST(ExprTest, CloneIsDeep) {
  auto e = ParseExpression("a.b = 3 AND c <= 2.5").ValueOrDie();
  auto copy = CloneExpr(e);
  EXPECT_NE(copy.get(), e.get());
  EXPECT_NE(copy->left.get(), e->left.get());
  EXPECT_EQ(copy->ToString(), e->ToString());
}

TEST(ExprTest, SplitConjunctsFlattensAndTree) {
  auto e = ParseExpression("a=1 AND b=2 AND (c=3 AND d=4)").ValueOrDie();
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(e, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 4u);
}

TEST(ExprTest, SplitConjunctsKeepsOrIntact) {
  auto e = ParseExpression("a=1 OR b=2").ValueOrDie();
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(e, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 1u);
}

// ---- Expression depth bound -------------------------------------------------

/// `n` copies of `term` joined by `op`: a left-deep chain n levels deep when
/// `term` is a leaf.
std::string Chain(const std::string& term, const std::string& op, size_t n) {
  std::string s = term;
  for (size_t i = 1; i < n; ++i) s += op + term;
  return s;
}

void ExpectTooDeep(const std::string& sql) {
  auto q = ParseQuery(sql);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError) << q.status().ToString();
}

TEST(ParserDepthTest, DeepInputsAreParseErrors) {
  // 10,000 nested parentheses overflowed the parser's own recursion.
  ExpectTooDeep("SELECT " + std::string(10000, '(') + "1" +
                std::string(10000, ')') + " FROM t");
  // Long left-deep chains parsed, then overflowed the per-level recursion
  // of the expression helpers (evaluation; the tree's destructor at a
  // million terms).
  ExpectTooDeep("SELECT " + Chain("1", "+", 100000) + " FROM t");
  ExpectTooDeep("SELECT a FROM t WHERE " + Chain("a = 1", " AND ", 100000));
  ExpectTooDeep("SELECT " + Chain("1", "+", 1000000) + " FROM t");
}

TEST(ParserDepthTest, ChainAtTheLimitParses) {
  auto q = ParseQuery("SELECT " + Chain("1", "+", kMaxExprDepth) + " AS s FROM t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExpectTooDeep("SELECT " + Chain("1", "+", kMaxExprDepth + 1) + " FROM t");
  // `a = 1` is two levels deep, so kMaxExprDepth - 1 conjuncts fit.
  EXPECT_TRUE(
      ParseQuery("SELECT a FROM t WHERE " + Chain("a = 1", " AND ", kMaxExprDepth - 1))
          .ok());
  ExpectTooDeep("SELECT a FROM t WHERE " + Chain("a = 1", " AND ", kMaxExprDepth));
  // A parenthesis pair is a level; so is an aggregate call.
  const size_t n = kMaxExprDepth - 1;
  EXPECT_TRUE(
      ParseExpression(std::string(n, '(') + "1" + std::string(n, ')')).ok());
  EXPECT_FALSE(
      ParseExpression(std::string(n + 1, '(') + "1" + std::string(n + 1, ')')).ok());
  EXPECT_TRUE(ParseExpression("sum(" + Chain("1", "+", n) + ")").ok());
  EXPECT_FALSE(ParseExpression("sum(" + Chain("1", "+", n + 1) + ")").ok());
}

}  // namespace
}  // namespace cajade
