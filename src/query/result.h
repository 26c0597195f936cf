#ifndef POLY_QUERY_RESULT_H_
#define POLY_QUERY_RESULT_H_

#include <string>
#include <vector>

#include "query/trace.h"
#include "types/schema.h"

namespace poly {

/// Materialized query result: named columns plus row data. Intermediate
/// operator results use the same shape.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  /// Per-operator execution trace, set on the top-level result when the
  /// query ran with tracing enabled (ExecOptions::trace or
  /// QueryCompiler::set_trace); null otherwise and on intermediates.
  TracePtr trace;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return column_names.size(); }

  /// Index of a named output column, or -1.
  int ColumnIndex(const std::string& name) const {
    for (size_t i = 0; i < column_names.size(); ++i) {
      if (column_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// EXPLAIN ANALYZE-style annotated plan of the query that produced this
  /// result, or "" when it ran without tracing.
  std::string AnnotatedPlan() const { return trace ? trace->ToString() : ""; }

  /// Tab-separated debug rendering (header + rows), capped at `max_rows`.
  std::string ToString(size_t max_rows = 20) const {
    std::string out;
    for (size_t i = 0; i < column_names.size(); ++i) {
      if (i) out += "\t";
      out += column_names[i];
    }
    out += "\n";
    size_t shown = 0;
    for (const auto& row : rows) {
      if (shown++ >= max_rows) {
        out += "... (" + std::to_string(rows.size()) + " rows total)\n";
        break;
      }
      for (size_t i = 0; i < row.size(); ++i) {
        if (i) out += "\t";
        out += row[i].ToString();
      }
      out += "\n";
    }
    return out;
  }
};

}  // namespace poly

#endif  // POLY_QUERY_RESULT_H_
