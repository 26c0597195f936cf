#ifndef POLY_COMMON_EXEC_OPTIONS_H_
#define POLY_COMMON_EXEC_OPTIONS_H_

#include <cstddef>
#include <string>

namespace poly {

namespace resource {
class BudgetNode;
}  // namespace resource

/// Knobs for morsel-driven parallel query execution, threaded from
/// `Database::set_exec_options` (session default) or per-`Executor`. The
/// default is fully serial, so MVCC-sensitive callers (transaction-local
/// reads, merge, the SOE log appliers) keep the single-threaded execution
/// they were written against; analytic entry points opt in explicitly.
struct ExecOptions {
  static constexpr size_t kDefaultMorselRows = 16384;

  /// Total threads a query may use, calling thread included. <= 1 = serial.
  /// A parallel query runs on its Database's pool for this thread count
  /// (`Database::exec_pool`): num_threads - 1 workers plus the caller.
  size_t num_threads = 1;

  /// Rows per morsel — the dispatch granule for table scans and for
  /// splitting materialized operator inputs. Results are independent of
  /// both this value and num_threads, except that floating-point aggregate
  /// sums follow the morsel-ordered reduction tree (see DESIGN.md §5).
  size_t morsel_rows = kDefaultMorselRows;

  /// Record per-operator spans (rows in/out, bytes, wall + coordinator CPU
  /// nanos) and attach an EXPLAIN ANALYZE-style trace to the top-level
  /// ResultSet. Off by default; the cost when on is per *operator*, never
  /// per row (E21 measures it at well under 3%).
  bool trace = false;

  /// Workload class this query runs under ("oltp", "olap", "batch", ...).
  /// Empty means the governor's default class. Consulted whenever a
  /// ResourceGovernor is attached to the Database: `Executor::Execute` with
  /// no budget of its own mints a ticket in this class (DESIGN.md §13.2),
  /// whether it runs a `Database::Execute` statement or an SOE fragment.
  std::string workload_class;

  /// Memory budget to charge operator materializations against (hash join
  /// build sides, aggregate tables, sort/result buffers). Null = unmetered.
  /// Normally the per-query node minted by the AdmissionController; the
  /// executor holds one Reservation against it and releases everything when
  /// the query finishes, success or error (DESIGN.md §13).
  resource::BudgetNode* budget = nullptr;
};

}  // namespace poly

#endif  // POLY_COMMON_EXEC_OPTIONS_H_
