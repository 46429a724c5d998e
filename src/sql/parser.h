// Recursive-descent parser for the single-block SQL subset:
//
//   SELECT item [, item]* FROM table [alias] [, table [alias]]*
//   [WHERE predicate] [GROUP BY colref [, colref]*]
//
// with expressions over columns, numeric/string literals, the aggregates
// COUNT/SUM/AVG/MIN/MAX, arithmetic (+ - * /), comparisons, AND/OR.
//
// Ownership and thread-safety: stateless parse entry points; the returned
// AST is caller-owned (nodes shared via ExprPtr) and immutable after
// parsing, so concurrent calls are safe.

#ifndef CAJADE_SQL_PARSER_H_
#define CAJADE_SQL_PARSER_H_

#include <cstddef>
#include <string>

#include "src/common/status.h"
#include "src/sql/expr.h"

namespace cajade {

/// Deepest expression tree either entry point accepts; a deeper one is a
/// ParseError. A leaf is one level, and every operator, aggregate call and
/// parenthesis pair adds one, so a left-deep chain `1+1+...+1` of n terms is
/// n levels deep and `x = 1 AND ... AND x = 1` of n conjuncts n + 1. The
/// bound keeps the parser and the expression helpers downstream, which
/// recurse once per level (binding, evaluation, cloning, printing,
/// destruction), within the stack. A parenthesis level costs the parser
/// three frames (ParsePrimary, ParseNested, ParseExpr), about 4.6 KiB in an
/// ASan Debug build, so 256 levels use about 1.2 MiB of an 8 MiB stack
/// there; real queries nest a few levels.
inline constexpr size_t kMaxExprDepth = 256;

/// Parses `sql` into a ParsedQuery (syntactic only; see Binder for name
/// resolution and semantic checks).
Result<ParsedQuery> ParseQuery(const std::string& sql);

/// Parses a standalone scalar/boolean expression (used in tests and for
/// user-supplied schema-graph join conditions).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace cajade

#endif  // CAJADE_SQL_PARSER_H_
