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
/// calls this only to classify the access. Reads through the scan's guard,
/// which holds one pin for stamps and values.
bool TryIdRangePredicate(const ColumnTable::ReadGuard& guard, const Expr& pred,
                         size_t* col_out, uint64_t* lo_out, uint64_t* hi_out);

/// Interpreted executor (the baseline for the compiled path of E13). Reads
/// run under snapshot-isolation `view`. A scan first selects the ids of
/// its qualifying rows, testing every `col op literal` conjunct of its
/// pushed predicate on main-store value ids; rows are materialized only
/// where an operator's output is rows. A hash join reads a scan child's
/// selection and a row leaf's bound rows in place, looking a scan side's
/// keys up once per dictionary entry. An aggregate that reads straight
/// from a scan or a hash join never materializes its input: a typed fold
/// groups the scan's selection, or the join's (left, right) match pairs,
/// on integer codes of its group keys and reads its inputs from
/// per-dictionary tables or in place, copying no Value per row
/// (DESIGN.md §5).
///
/// With ExecOptions::num_threads > 1 execution is morsel-driven: scans and
/// the scan-shaped operators (filter, project, aggregate input, hash-join
/// probe and output) split their input into fixed-size row-range morsels
/// dispatched over a ThreadPool. Per-worker fragments and stats are merged
/// in morsel order, so results, row order, and ExecStats are identical to
/// the serial path for any thread count and morsel size (floating-point
/// aggregate sums follow the fixed morsel-ordered reduction tree, and a
/// folded aggregate uses the same morsels over its unmaterialized input;
/// see DESIGN.md §5).
class Executor {
 public:
  /// Runs with the database's default execution options (serial unless
  /// Database::set_exec_options opted in).
  Executor(const Database* db, ReadView view);
  /// Runs with explicit options (e.g. a parallel analytic session). Either
  /// way a parallel query runs on db->exec_pool(opts.num_threads).
  Executor(const Database* db, ReadView view, const ExecOptions& opts);

  StatusOr<ResultSet> Execute(const PlanPtr& plan);

  const ExecStats& stats() const { return stats_; }
  const ExecOptions& options() const { return opts_; }

  /// Span tree of the last traced Execute (null when opts().trace is off or
  /// nothing ran). The same tree is attached to the returned ResultSet.
  const OperatorSpan* trace() const { return trace_root_.get(); }

 private:
  /// What one operator produced: its span's rows_out and bytes_out, and
  /// the bytes its boundary charges to the query reservation.
  struct Produced {
    uint64_t rows = 0;
    uint64_t bytes = 0;
  };
  /// Runs `body` as the execution of `node`. Grows the query reservation
  /// by the produced bytes (ResourceExhausted replaces the result when the
  /// budget says no; no-op without ExecOptions::budget). When opts_.trace
  /// is set, also times the node (wall + coordinator-thread CPU), counts
  /// rows in/out, and hangs its span under the parent operator's span.
  /// Exec wraps Dispatch in it; an aggregate wraps the scan or join it
  /// folds, so folded children trace and charge like any other operator.
  Status RunOperator(const PlanNode& node,
                     const std::function<StatusOr<Produced>()>& body);
  /// Runs `node` and materializes its rows (charged at the row estimate).
  StatusOr<ResultSet> Exec(const PlanNode& node);
  /// Extra charge for operator-internal state (join index, group table)
  /// that is not visible in any operator's output estimate.
  Status ChargeInternal(uint64_t bytes) { return reservation_.Grow(bytes); }
  StatusOr<ResultSet> Dispatch(const PlanNode& node);

  /// The rows one kScan node selects, not yet materialized: per scanned
  /// table, its pin, one read guard, and the ids of the rows that pass the
  /// pushed predicate in ascending order. Concatenated in table order, the
  /// ids are exactly the rows ExecScan returns, in the same order.
  struct ScanSelection {
    struct Part {
      std::shared_ptr<ColumnTable> table;
      std::unique_ptr<ColumnTable::ReadGuard> guard;  ///< one pin, scan and reads
      std::vector<size_t> emit;    ///< table column of each output column
      std::vector<uint64_t> rows;  ///< selected row ids
      size_t begin = 0;            ///< position of rows[0] in the concatenation
    };
    std::vector<std::string> column_names;
    std::vector<Part> parts;

    size_t size() const {
      return parts.empty() ? 0 : parts.back().begin + parts.back().rows.size();
    }
    /// Calls fn(part, row_id) for positions [begin, end) of the concatenation.
    template <typename F>
    void ForRange(size_t begin, size_t end, F&& fn) const;
    /// The part holding position `pos` (< size()) and the row id there.
    std::pair<size_t, uint64_t> Locate(size_t pos) const {
      // Parts are few (one per scanned partition): a linear walk.
      size_t p = 0;
      while (p + 1 < parts.size() && parts[p + 1].begin <= pos) ++p;
      return {p, parts[p].rows[pos - parts[p].begin]};
    }
  };
  /// The one scan helper: pins every table of `node` (demand-paging demoted
  /// partitions), selects its rows, and accounts for the scan (ExecStats,
  /// `storage.scan.*` counters in the database's registry, access events).
  Status SelectScan(const PlanNode& node, ScanSelection* out);
  /// SelectScan run as the operator `node` for a consumer that reads the
  /// selection in place (a fold, a join side): its span's rows_out is the
  /// selection, and it charges 8 B per selected row.
  Status RunSelectScan(const PlanNode& node, ScanSelection* out);
  /// SelectScan, then the selected rows materialized.
  StatusOr<ResultSet> ExecScan(const PlanNode& node);
  /// Runs `node` for a consumer that only reads its rows: a kRows leaf is
  /// its bound rows, shared rather than copied (with the span and charge
  /// Exec gives it); any other node is Exec's result.
  StatusOr<std::shared_ptr<const ResultSet>> ExecShared(const PlanNode& node);

  /// One input of a hash join, read where it lives: a Scan child stays its
  /// selection, any other child is its rows (a kRows leaf's bound rows, not
  /// copied). Position i is the i-th row the child returns.
  struct JoinSide {
    bool scan = false;
    ScanSelection sel;                      ///< a Scan child
    std::shared_ptr<const ResultSet> rows;  ///< any other child

    const std::vector<std::string>& column_names() const {
      return scan ? sel.column_names : rows->column_names;
    }
    size_t size() const { return scan ? sel.size() : rows->rows.size(); }
    /// Position `pos` as (part, row id); a row side has one part, its rows.
    std::pair<size_t, uint64_t> Locate(size_t pos) const {
      return scan ? sel.Locate(pos) : std::pair<size_t, uint64_t>{0, pos};
    }
    /// Appends the columns of the row at `pos` (a scan side's emitted ones).
    void AppendRow(size_t pos, Row* out) const;
  };
  /// Runs `child` as a join side (the kind of the child picks the side).
  Status ReadJoinSide(const PlanNode& child, JoinSide* out);

  /// A hash join's sides and its (left, right) position matches in output
  /// order: left position, then ascending right position.
  struct JoinMatches {
    JoinSide left, right;
    std::vector<std::pair<size_t, size_t>> pairs;

    /// The joined row's columns: left's, then right's.
    std::vector<std::string> column_names() const {
      std::vector<std::string> names = left.column_names();
      names.insert(names.end(), right.column_names().begin(), right.column_names().end());
      return names;
    }
  };
  /// The one build/probe: reads both sides in place, builds on the right,
  /// probes with the left; keys match as SQL `=` compares them.
  /// ExecHashJoin materializes the matched rows; an aggregate folds them.
  Status MatchJoin(const PlanNode& node, JoinMatches* out);

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

  /// The database's pool for opts_.num_threads, looked up on first use;
  /// null when serial.
  ThreadPool* pool();
  size_t morsel_rows() const {
    return opts_.morsel_rows ? opts_.morsel_rows : ExecOptions::kDefaultMorselRows;
  }

  /// `storage.scan.{hot,aged}.{count,rows,bytes}` in the database's
  /// registry, looked up on the first scan of this executor.
  struct ScanCounters {
    metrics::Counter* count = nullptr;
    metrics::Counter* rows = nullptr;
    metrics::Counter* bytes = nullptr;
  };
  const ScanCounters& scan_counters(bool aged);

  const Database* db_;
  ReadView view_;
  ExecOptions opts_;
  ThreadPool* pool_ = nullptr;
  ScanCounters hot_counters_, aged_counters_;
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
