#ifndef POLY_QUERY_EXECUTOR_H_
#define POLY_QUERY_EXECUTOR_H_

#include <functional>
#include <memory>

#include "common/exec_options.h"
#include "query/plan.h"
#include "query/result.h"
#include "resource/memory_budget.h"
#include "storage/database.h"
#include "storage/mvcc.h"

namespace poly {

class ThreadPool;

/// Counters exposed by the interpreted executor so experiments can report
/// rows scanned/materialized (E10/E12 measure exactly these). Parallel
/// execution accumulates per-worker partial counters and merges them, so
/// the totals match the serial path exactly.
struct ExecStats {
  uint64_t rows_scanned = 0;      ///< row versions visited in scans
  uint64_t rows_materialized = 0; ///< rows surviving scan predicates
  uint64_t id_range_scans = 0;    ///< scans answered via dictionary ID ranges
  uint64_t partitions_scanned = 0;
};

/// If the predicate is `($col <op> literal)` over a main-store column, the
/// sorted dictionary turns it into a value-ID range test — no value
/// materialization. Returns false if the shape does not match. Scans served
/// this way are the OLTP-shaped "point read" signal for the tiering heat
/// tracker; the interpreted scan executes the range, the compiled path
/// calls this only to classify the access.
bool TryIdRangePredicate(const ColumnTable& table, const Expr& pred, size_t* col_out,
                         uint64_t* lo_out, uint64_t* hi_out);
/// Same, against an already-pinned unified guard (the scan paths hold one
/// guard for stamps + values and classify through it).
bool TryIdRangePredicate(const ColumnTable::ReadGuard& guard, const Expr& pred,
                         size_t* col_out, uint64_t* lo_out, uint64_t* hi_out);

/// Vectorized-enough interpreted executor: every operator materializes its
/// result (simple, predictable, and a fair baseline for the compiled path of
/// E13). Reads run under snapshot-isolation `view`.
///
/// With ExecOptions::num_threads > 1 execution is morsel-driven: scans and
/// the scan-shaped operators (filter, project, aggregate input, hash-join
/// build and probe) split their input into fixed-size row-range morsels
/// dispatched over a ThreadPool. Per-worker fragments and stats are merged
/// in morsel order, so results, row order, and ExecStats are identical to
/// the serial path for any thread count and morsel size (floating-point
/// aggregate sums follow the fixed morsel-ordered reduction tree; see
/// DESIGN.md §5).
class Executor {
 public:
  /// Runs with the database's default execution options (serial unless
  /// Database::set_exec_options opted in) and its shared pool.
  Executor(const Database* db, ReadView view);
  /// Runs with explicit options (e.g. a parallel analytic session). When
  /// opts.pool is null and opts.num_threads > 1, a private pool with
  /// num_threads - 1 workers is created on first use.
  Executor(const Database* db, ReadView view, const ExecOptions& opts);
  ~Executor();

  StatusOr<ResultSet> Execute(const PlanPtr& plan);

  const ExecStats& stats() const { return stats_; }
  const ExecOptions& options() const { return opts_; }

  /// Span tree of the last traced Execute (null when opts().trace is off or
  /// nothing ran). The same tree is attached to the returned ResultSet.
  const OperatorSpan* trace() const { return trace_root_.get(); }

 private:
  /// Tracing wrapper around Dispatch: when opts_.trace is set, times the
  /// node (wall + coordinator-thread CPU), counts rows in/out, and hangs
  /// the span under the parent operator's span.
  StatusOr<ResultSet> Exec(const PlanNode& node);
  /// Budget hook on every operator boundary: grows the query reservation by
  /// the materialized output estimate; ResourceExhausted replaces the
  /// result when the budget says no. No-op without ExecOptions::budget.
  StatusOr<ResultSet> ChargeOutput(StatusOr<ResultSet> result);
  /// Extra charge for operator-internal state (join index, group table)
  /// that is not visible in any operator's output estimate.
  Status ChargeInternal(uint64_t bytes) { return reservation_.Grow(bytes); }
  StatusOr<ResultSet> Dispatch(const PlanNode& node);
  StatusOr<ResultSet> ExecScan(const PlanNode& node);
  /// Scans one table, emitting the table columns `emit` of each row that
  /// passes `predicate` (table-column space).
  Status ScanOneTable(const ColumnTable& table, const ExprPtr& predicate,
                      const std::vector<size_t>& emit, ResultSet* out);
  /// What one table scan evaluates and emits, shared by all its morsels.
  struct ScanSpec {
    const Expr* predicate = nullptr;  ///< null = every visible row passes
    std::vector<size_t> pred_cols;    ///< columns the predicate reads
    bool use_range = false;           ///< main rows test a value-id range
    size_t range_col = 0;
    uint64_t lo = 0, hi = 0;
    std::vector<size_t> emit;         ///< table columns of each output row
  };
  /// Scans rows [begin, end) through `guard` into `out`, counting into
  /// `stats` (which may be a worker-local partial). One morsel of a scan.
  /// The guard is immutable and shared by every morsel of one table scan:
  /// one pin covers stamps and values for the whole fan-out (DESIGN.md
  /// §12.5).
  void ScanMorsel(const ColumnTable::ReadGuard& guard, const ScanSpec& spec,
                  uint64_t begin, uint64_t end, ResultSet* out,
                  ExecStats* stats) const;
  StatusOr<ResultSet> ExecFilter(const PlanNode& node);
  StatusOr<ResultSet> ExecProject(const PlanNode& node);
  StatusOr<ResultSet> ExecHashJoin(const PlanNode& node);
  StatusOr<ResultSet> ExecAggregate(const PlanNode& node);
  StatusOr<ResultSet> ExecSort(const PlanNode& node);
  StatusOr<ResultSet> ExecLimit(const PlanNode& node);
  /// Distributed-IR nodes (DESIGN.md §14), runnable single-node: kExchange
  /// passes through (movement is the cluster's job), the partial/final pair
  /// reproduces two-phase aggregation exactly as the shuffle consumers do.
  StatusOr<ResultSet> ExecExchange(const PlanNode& node);
  StatusOr<ResultSet> ExecPartialAggregate(const PlanNode& node);
  StatusOr<ResultSet> ExecFinalAggregate(const PlanNode& node);

  /// Pool backing parallel execution; null when serial.
  ThreadPool* pool();
  size_t morsel_rows() const {
    return opts_.morsel_rows ? opts_.morsel_rows : ExecOptions::kDefaultMorselRows;
  }
  /// Splits [0, n) into morsels, runs body(begin, end, &fragment) across
  /// the pool, and appends fragments to `out` in morsel order (serial
  /// inputs run as a single morsel straight into `out`).
  void MorselMap(size_t n,
                 const std::function<void(size_t, size_t, ResultSet*)>& body,
                 ResultSet* out);

  const Database* db_;
  ReadView view_;
  ExecOptions opts_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ExecStats stats_;
  std::shared_ptr<OperatorSpan> trace_root_;  ///< shared with the ResultSet
  OperatorSpan* current_span_ = nullptr;  ///< parent span during traced recursion
  /// Query-lifetime memory reservation against ExecOptions::budget.
  /// Cumulative across operators (intermediates stay charged until the
  /// query ends) — a deliberate over-approximation that bounds peak usage.
  /// Grown only on the coordinator thread; released at the end of Execute
  /// on every path, so budgets balance to zero query by query.
  resource::Reservation reservation_;
};

}  // namespace poly

#endif  // POLY_QUERY_EXECUTOR_H_
