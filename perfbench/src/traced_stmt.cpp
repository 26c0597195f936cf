#include "traced_stmt.h"

#include <algorithm>

#include "bench_util.h"
#include "query/compiled.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "resource/governor.h"
#include "span_trace.h"
#include "storage/mvcc.h"

namespace polybench {

namespace {

/// Sums rows_in (versions visited) and rows_out (rows surviving the scan
/// predicate) over the scan spans of an operator tree — the compiled path
/// has no ExecStats, its FusedScan spans carry the same counts.
void ScanCounts(const poly::OperatorSpan& op, double* scanned, double* materialized) {
  if (op.label.rfind("Scan(", 0) == 0 || op.label.rfind("FusedScan(", 0) == 0) {
    *scanned += static_cast<double>(op.rows_in);
    *materialized += static_cast<double>(op.rows_out);
  }
  for (const auto& child : op.children) ScanCounts(child, scanned, materialized);
}

/// Records what one engine run did on its "query.execute" span.
void Annotate(Span* span, const poly::StatusOr<poly::ResultSet>& result,
              uint64_t cpu_start, size_t threads) {
  span->Attr("cpu_ns", static_cast<double>(ProcessCpuNs() - cpu_start));
  span->Attr("threads", static_cast<double>(std::max<size_t>(threads, 1)));
  span->Attr("ok", result.ok() ? 1 : 0);
  if (!result.ok()) return;
  span->Attr("returned", static_cast<double>(result->num_rows()));
  if (result->trace) {
    double scanned = 0;
    double materialized = 0;
    ScanCounts(*result->trace, &scanned, &materialized);
    span->Attr("scanned", scanned);
    span->Attr("materialized", materialized);
    span->AddOperatorTree(*result->trace, span->start_ns());
  }
}

}  // namespace

poly::StatusOr<poly::ResultSet> TracedExecute(
    poly::Database* db, const std::string& sql, const poly::ExecOptions& opts,
    const std::vector<std::pair<std::string, double>>& stmt_attrs) {
  Span stmt("query.stmt");
  for (const auto& [key, value] : stmt_attrs) stmt.Attr(key, value);

  poly::PlanPtr plan;
  {
    Span span("query.parse");
    auto parsed = poly::SqlParser(db).Parse(sql);
    if (!parsed.ok()) return parsed.status();
    plan = *parsed;
  }
  {
    Span span("query.optimize");
    poly::Optimizer optimizer(/*pruner=*/nullptr, db);
    plan = optimizer.Optimize(plan);
  }

  poly::ExecOptions effective = opts;
  effective.trace = true;
  poly::resource::AdmissionTicket ticket;
  if (auto* gov = db->resource_governor()) {
    Span span("resource.admit");
    auto admitted = gov->AdmitQuery(effective.workload_class);
    span.Attr("rejected", admitted.ok() ? 0 : 1);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(*admitted);
    effective.budget = ticket.budget();
  }

  const poly::ReadView view = poly::LatestCommittedView();
  poly::QueryCompiler compiler(db, view, effective);
  bool compilable = false;
  {
    Span span("query.can_compile");
    compilable = compiler.CanCompile(plan);
  }
  if (compilable) {
    Span span("query.execute");
    span.Attr("compiled", 1);
    uint64_t cpu_start = ProcessCpuNs();
    auto compiled = compiler.Execute(plan);
    if (compiled.ok() || compiled.status().code() != poly::StatusCode::kNotImplemented) {
      Annotate(&span, compiled, cpu_start, 1);
      return compiled;
    }
    span.Attr("bailed", 1);
  }
  Span span("query.execute");
  span.Attr("compiled", 0);
  uint64_t cpu_start = ProcessCpuNs();
  poly::Executor executor(db, view, effective);
  auto result = executor.Execute(plan);
  Annotate(&span, result, cpu_start, effective.num_threads);
  return result;
}

}  // namespace polybench
