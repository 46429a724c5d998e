#include "src/sql/parser.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/common/string_util.h"
#include "src/sql/lexer.h"

namespace cajade {

namespace {

/// The value of a number token. The grammar has no unary minus, so an
/// integer literal must lie in [0, INT64_MAX] and a decimal one must be
/// finite; a literal outside that range is an error, not a clamped
/// constant that would make the query filter on a different value.
Result<Value> NumberLiteral(const std::string& text) {
  errno = 0;
  if (text.find('.') != std::string::npos) {
    const double v = std::strtod(text.c_str(), nullptr);
    if (errno != ERANGE || !std::isinf(v)) return Value(v);
  } else {
    const long long v = std::strtoll(text.c_str(), nullptr, 10);
    if (errno != ERANGE) return Value(static_cast<int64_t>(v));
  }
  return Status::InvalidArgument(
      Format("numeric literal %s is out of range", text.c_str()));
}

/// Recursive-descent parser over a token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> ParseQuery() {
    ParsedQuery q;
    RETURN_NOT_OK(ExpectKeyword("SELECT"));
    if (PeekKeyword("DISTINCT")) Advance();  // accepted and ignored
    RETURN_NOT_OK(ParseSelectList(&q));
    RETURN_NOT_OK(ExpectKeyword("FROM"));
    RETURN_NOT_OK(ParseFromList(&q));
    if (PeekKeyword("WHERE")) {
      Advance();
      ASSIGN_OR_RETURN(Sub where, ParseExpr());
      q.where = std::move(where.expr);
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        ASSIGN_OR_RETURN(Sub col, ParsePrimary());
        if (col.expr->kind != ExprKind::kColumnRef) {
          return Status::ParseError("GROUP BY entries must be column references");
        }
        q.group_by.push_back(std::move(col.expr));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError(
          Format("trailing input at offset %zu: '%s'", Peek().position,
                 Peek().text.c_str()));
    }
    return q;
  }

  Result<ExprPtr> ParseStandaloneExpr() {
    ASSIGN_OR_RETURN(Sub e, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("trailing input after expression");
    }
    return std::move(e.expr);
  }

 private:
  /// A parsed subexpression and the depth of its tree (see kMaxExprDepth).
  struct Sub {
    ExprPtr expr;
    size_t depth;
  };

  Status TooDeep() const {
    return Status::ParseError(
        Format("expression deeper than %zu levels at offset %zu", kMaxExprDepth,
               Peek().position));
  }

  /// `expr` one level above a subtree `child_depth` deep.
  Result<Sub> Level(ExprPtr expr, size_t child_depth) const {
    if (child_depth >= kMaxExprDepth) return TooDeep();
    return Sub{std::move(expr), child_depth + 1};
  }

  Result<Sub> Binary(BinaryOp op, Sub lhs, Sub rhs) const {
    return Level(Expr::MakeBinary(op, std::move(lhs.expr), std::move(rhs.expr)),
                 std::max(lhs.depth, rhs.depth));
  }

  /// Parses a parenthesized group or an aggregate argument. The level is
  /// counted before descending, so the parser's own recursion stays within
  /// kMaxExprDepth levels too.
  Result<Sub> ParseNested() {
    if (++nesting_ > kMaxExprDepth) return TooDeep();
    ASSIGN_OR_RETURN(Sub sub, ParseExpr());
    --nesting_;
    return sub;
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool PeekKeyword(const std::string& kw) const {
    return Peek().type == TokenType::kKeyword && Peek().text == kw;
  }
  bool PeekSymbol(const std::string& s) const {
    return Peek().type == TokenType::kSymbol && Peek().text == s;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (PeekSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) {
      return Status::ParseError(Format("expected %s at offset %zu (got '%s')",
                                       kw.c_str(), Peek().position,
                                       Peek().text.c_str()));
    }
    Advance();
    return Status::OK();
  }

  Status ParseSelectList(ParsedQuery* q) {
    while (true) {
      ASSIGN_OR_RETURN(Sub item, ParseExpr());
      ExprPtr e = std::move(item.expr);
      std::string name;
      if (PeekKeyword("AS")) {
        Advance();
        if (Peek().type != TokenType::kIdentifier) {
          return Status::ParseError("expected identifier after AS");
        }
        name = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        // Bare alias: SELECT expr alias.
        name = Advance().text;
      } else {
        name = DeriveName(*e, q->select.size());
      }
      q->select.push_back({std::move(e), std::move(name)});
      if (!ConsumeSymbol(",")) break;
    }
    return Status::OK();
  }

  static std::string DeriveName(const Expr& e, size_t index) {
    switch (e.kind) {
      case ExprKind::kColumnRef:
        return e.column;
      case ExprKind::kAggregate:
        return ToLower(AggFuncToString(e.agg));
      default:
        return Format("expr%zu", index);
    }
  }

  Status ParseFromList(ParsedQuery* q) {
    while (true) {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::ParseError(
            Format("expected table name at offset %zu", Peek().position));
      }
      TableRef ref;
      ref.table_name = Advance().text;
      if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Advance().text;
      } else {
        ref.alias = ref.table_name;
      }
      q->from.push_back(std::move(ref));
      if (!ConsumeSymbol(",")) break;
    }
    return Status::OK();
  }

  /// Binding powers of the binary operators, loosest first. 0 is "not a
  /// binary operator", so it never reaches any ParseExpr's min_prec.
  enum Prec : int { kNoOp = 0, kOrPrec, kAndPrec, kCmpPrec, kAddPrec, kMulPrec };

  struct BinaryOpToken {
    BinaryOp op;
    int prec;
  };

  /// The binary operator at the cursor, with prec kNoOp when there is none.
  BinaryOpToken PeekBinaryOp() const {
    static const struct {
      TokenType type;
      const char* text;
      BinaryOpToken op;
    } kOps[] = {
        {TokenType::kKeyword, "OR", {BinaryOp::kOr, kOrPrec}},
        {TokenType::kKeyword, "AND", {BinaryOp::kAnd, kAndPrec}},
        {TokenType::kSymbol, "=", {BinaryOp::kEq, kCmpPrec}},
        {TokenType::kSymbol, "<>", {BinaryOp::kNe, kCmpPrec}},
        {TokenType::kSymbol, "<=", {BinaryOp::kLe, kCmpPrec}},
        {TokenType::kSymbol, ">=", {BinaryOp::kGe, kCmpPrec}},
        {TokenType::kSymbol, "<", {BinaryOp::kLt, kCmpPrec}},
        {TokenType::kSymbol, ">", {BinaryOp::kGt, kCmpPrec}},
        {TokenType::kSymbol, "+", {BinaryOp::kAdd, kAddPrec}},
        {TokenType::kSymbol, "-", {BinaryOp::kSub, kAddPrec}},
        {TokenType::kSymbol, "*", {BinaryOp::kMul, kMulPrec}},
        {TokenType::kSymbol, "/", {BinaryOp::kDiv, kMulPrec}},
    };
    for (const auto& [type, text, op] : kOps) {
      if (Peek().type == type && Peek().text == text) return op;
    }
    return {BinaryOp::kAdd, kNoOp};
  }

  // Precedence climbing: an operator joins the expression when it binds at
  // least `min_prec`, and its right operand is parsed one level tighter, so
  // every operator is left-associative. Comparisons do not chain: after
  // one, only a looser operator may join, so `a = b = c` stops at the
  // second `=` and the caller rejects it. Nor may a tighter operator join
  // after a looser one, which only happens after such a stop
  // (`x AND a = b = c`). Chains check their depth as each operator joins,
  // so an overlong chain fails before the rest of it is built.
  Result<Sub> ParseExpr(int min_prec = kOrPrec) {
    ASSIGN_OR_RETURN(Sub lhs, ParsePrimary());
    int max_prec = kMulPrec;
    while (true) {
      const BinaryOpToken next = PeekBinaryOp();
      if (next.prec < min_prec || next.prec > max_prec) return lhs;
      Advance();
      ASSIGN_OR_RETURN(Sub rhs, ParseExpr(next.prec + 1));
      ASSIGN_OR_RETURN(lhs, Binary(next.op, std::move(lhs), std::move(rhs)));
      max_prec = next.prec == kCmpPrec ? kCmpPrec - 1 : next.prec;
    }
  }

  static bool AggFuncFromName(const std::string& upper, AggFunc* out) {
    if (upper == "COUNT") {
      *out = AggFunc::kCount;
    } else if (upper == "SUM") {
      *out = AggFunc::kSum;
    } else if (upper == "AVG") {
      *out = AggFunc::kAvg;
    } else if (upper == "MIN") {
      *out = AggFunc::kMin;
    } else if (upper == "MAX") {
      *out = AggFunc::kMax;
    } else {
      return false;
    }
    return true;
  }

  Result<Sub> ParsePrimary() {
    const Token& t = Peek();
    if (t.type == TokenType::kNumber) {
      Advance();
      ASSIGN_OR_RETURN(Value v, NumberLiteral(t.text));
      return Sub{Expr::MakeLiteral(std::move(v)), 1};
    }
    if (t.type == TokenType::kString) {
      Advance();
      return Sub{Expr::MakeLiteral(Value(t.text)), 1};
    }
    if (t.type == TokenType::kSymbol && t.text == "(") {
      Advance();
      ASSIGN_OR_RETURN(Sub inner, ParseNested());
      if (!ConsumeSymbol(")")) {
        return Status::ParseError("expected ')'");
      }
      return Level(std::move(inner.expr), inner.depth);
    }
    if (t.type == TokenType::kIdentifier) {
      std::string first = Advance().text;
      AggFunc fn = AggFunc::kCount;  // overwritten when AggFuncFromName hits
      if (PeekSymbol("(") && AggFuncFromName(ToUpper(first), &fn)) {
        Advance();  // (
        if (PeekKeyword("DISTINCT")) Advance();
        Sub arg{nullptr, 0};  // COUNT(*) keeps the null argument
        if (PeekSymbol("*")) {
          Advance();
        } else {
          ASSIGN_OR_RETURN(arg, ParseNested());
        }
        if (!ConsumeSymbol(")")) {
          return Status::ParseError("expected ')' after aggregate argument");
        }
        return Level(Expr::MakeAggregate(fn, std::move(arg.expr)), arg.depth);
      }
      if (ConsumeSymbol(".")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::ParseError(
              Format("expected column name after '%s.'", first.c_str()));
        }
        std::string col = Advance().text;
        return Sub{Expr::MakeColumn(first, std::move(col)), 1};
      }
      return Sub{Expr::MakeColumn("", std::move(first)), 1};
    }
    return Status::ParseError(Format("unexpected token '%s' at offset %zu",
                                     t.text.c_str(), t.position));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t nesting_ = 0;  ///< open parenthesized groups and aggregate arguments
};

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpr();
}

}  // namespace cajade
