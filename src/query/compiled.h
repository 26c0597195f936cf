#ifndef POLY_QUERY_COMPILED_H_
#define POLY_QUERY_COMPILED_H_

#include <vector>

#include "common/exec_options.h"
#include "query/plan.h"
#include "query/result.h"
#include "storage/database.h"
#include "storage/mvcc.h"

namespace poly {

/// Plan-time query "compilation" (§IV-A): the SAP HANA SOE translates SQL
/// into C and compiles it with Clang/LLVM; the effect being measured in
/// [11]/[12] is the elimination of per-row interpretation overhead at
/// operator boundaries. This module reproduces that effect without shipping
/// a compiler: a supported plan shape is lowered at "compile time" into a
/// flat numeric program over primitive column arrays, then executed in one
/// fused loop with direct-indexed (dictionary position) group accumulators.
///
/// Supported shape (the TPC-H Q1/Q6 family used in [11]):
///   Aggregate(group_by: none or one int/string column,
///             aggs: SUM/COUNT/MIN/MAX/AVG over arithmetic of numeric cols)
///     over Scan(table, predicate: conjunction of <col cmp literal>)
class QueryCompiler {
 public:
  /// Runs with the database's default execution options (like Executor).
  QueryCompiler(const Database* db, ReadView view)
      : QueryCompiler(db, view, db->exec_options()) {}
  /// Runs with explicit options. The fused loop is single-threaded by
  /// construction, so only `trace` and `budget` apply here.
  QueryCompiler(const Database* db, ReadView view, const ExecOptions& opts)
      : db_(db), view_(view), opts_(opts), trace_(opts.trace) {}

  /// True if the plan lowers to a fused kernel.
  bool CanCompile(const PlanPtr& plan) const;

  /// Compiles and runs; NotImplemented if the shape is unsupported
  /// (callers then fall back to the interpreted Executor).
  StatusOr<ResultSet> Execute(const PlanPtr& plan);

  /// Record per-kernel spans (one FusedScan child per table: versions
  /// visited, rows surviving the predicate, wall/CPU nanos) and attach an
  /// EXPLAIN ANALYZE trace to the result — the compiled counterpart of
  /// ExecOptions::trace.
  void set_trace(bool trace) { trace_ = trace; }

  /// Span tree of the last traced Execute (null when tracing is off).
  const OperatorSpan* trace() const { return trace_root_.get(); }

  const ExecOptions& options() const { return opts_; }

 private:
  const Database* db_;
  ReadView view_;
  ExecOptions opts_;
  bool trace_ = false;
  std::shared_ptr<OperatorSpan> trace_root_;  ///< shared with the ResultSet
};

}  // namespace poly

#endif  // POLY_QUERY_COMPILED_H_
