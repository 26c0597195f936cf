#ifndef POLY_QUERY_SQL_PARSER_H_
#define POLY_QUERY_SQL_PARSER_H_

#include <string>

#include "query/plan.h"
#include "storage/database.h"

namespace poly {

/// The "common SQL-like internal query language" of §II: every engine's
/// surface language lowers to plans; this parser is the SQL entry point.
///
/// Supported grammar (case-insensitive keywords):
///
///   SELECT [DISTINCT] <item> [, <item>]...
///   FROM <table>
///   [JOIN <table> ON <col> = <col>]...
///   [WHERE <expr>]
///   [GROUP BY <col> [, <col>]...]
///   [HAVING <expr>]
///   [ORDER BY <output-col> [ASC|DESC] [, ...]]
///   [LIMIT <n>]
///
///   item  := * | <expr> [AS <name>]
///          | COUNT(*) | COUNT(<expr>) | SUM(<expr>) | AVG(<expr>)
///          | MIN(<expr>) | MAX(<expr>)
///   expr  := or-chain of AND/NOT/comparisons/arithmetic over columns,
///            integer/double/string/boolean/NULL literals, parentheses,
///            <expr> LIKE '<pattern>', <expr> IN (<literal>, ...),
///            <expr> IS [NOT] NULL
///
/// Column names resolve against the FROM/JOIN tables; after a join, names
/// may be qualified ("orders.id") to disambiguate. The resulting plan runs
/// through the Optimizer and the Executor (Database::Execute).
///
/// HAVING requires GROUP BY or an aggregate select list and resolves
/// against the aggregate's output: GROUP BY columns (by name or alias),
/// select-list aggregate aliases, and aggregate calls. An aggregate call in
/// HAVING that does not match a select-list aggregate (same function and
/// argument) is computed as a hidden aggregate slot and dropped by the
/// final projection — `SELECT region FROM t GROUP BY region HAVING
/// COUNT(*) > 5` works. The plan shape is Aggregate -> Filter -> Project
/// (the optimizer never pushes filters through an aggregate).
///
/// DISTINCT dedups the projected rows before ORDER BY/LIMIT, lowered as an
/// Aggregate over every output column with no aggregate functions — rows
/// keep first-occurrence order.
class SqlParser {
 public:
  explicit SqlParser(const Database* db) : db_(db) {}

  /// Parses one SELECT statement into a plan.
  StatusOr<PlanPtr> Parse(const std::string& sql) const;

 private:
  const Database* db_;
};

}  // namespace poly

#endif  // POLY_QUERY_SQL_PARSER_H_
