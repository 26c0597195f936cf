#ifndef POLY_STORAGE_DATABASE_H_
#define POLY_STORAGE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_options.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/result.h"
#include "storage/access_hooks.h"
#include "storage/column_table.h"
#include "storage/row_table.h"

namespace poly {

namespace resource {
class ResourceGovernor;
}  // namespace resource

/// In-memory catalog of column tables (plus row-store baselines for the
/// experiments). The single-node analogue of the SOE catalog service.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a column table; fails with AlreadyExists on a name clash.
  StatusOr<ColumnTable*> CreateTable(const std::string& name, Schema schema,
                                     bool compress_main = true);
  /// Creates a row-store table (baseline engine).
  StatusOr<RowTable*> CreateRowTable(const std::string& name, Schema schema);

  StatusOr<ColumnTable*> GetTable(const std::string& name) const;
  StatusOr<RowTable*> GetRowTable(const std::string& name) const;

  /// Like GetTable but returns a shared handle that keeps the table alive
  /// even if a concurrent DropTable (e.g. the tiering daemon demoting the
  /// partition) removes it from the catalog mid-scan. Readers that may race
  /// tier movement must pin; the raw-pointer GetTable stays valid for
  /// callers that own the table lifecycle.
  StatusOr<std::shared_ptr<ColumnTable>> PinTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  /// Adopts an externally built table (used by recovery and tier movement).
  Status AdoptTable(std::unique_ptr<ColumnTable> table);

  std::vector<std::string> TableNames() const;
  size_t MemoryBytes() const;

  /// Default execution options handed to every Executor constructed without
  /// explicit options and to Execute(sql).
  void set_exec_options(const ExecOptions& opts);
  ExecOptions exec_options() const;

  /// The worker pool every query with ExecOptions::num_threads ==
  /// `num_threads` runs on: num_threads - 1 workers (the query's calling
  /// thread is the remaining runner), created on first use and kept until
  /// the database is destroyed. Concurrent queries with the same thread
  /// count share its workers. Null when `num_threads` <= 1 (serial).
  ThreadPool* exec_pool(size_t num_threads) const;

  /// Access observer fed by the executors after every partition scan. Null
  /// by default; set by the tiering daemon. The observer must outlive the
  /// queries that see it — detach (set nullptr) and quiesce before
  /// destroying it.
  void set_access_observer(AccessObserver* observer) {
    access_observer_.store(observer, std::memory_order_release);
  }
  AccessObserver* access_observer() const {
    return access_observer_.load(std::memory_order_acquire);
  }

  /// Demand-paging resolver consulted by the executors when a scan hits a
  /// partition missing from the catalog (demoted). Same lifetime rules as
  /// the observer.
  void set_tier_resolver(TierResolver* resolver) {
    tier_resolver_.store(resolver, std::memory_order_release);
  }
  TierResolver* tier_resolver() const {
    return tier_resolver_.load(std::memory_order_acquire);
  }

  /// Metric registry this instance reports to. Defaults to the process-wide
  /// metrics::Default(); standalone instances in tests pass their own so
  /// tiering/resource counters don't cross-pollute. Set before attaching
  /// daemons or governors — they cache metric pointers at construction.
  void set_metrics_registry(metrics::Registry* registry) {
    metrics_.store(registry, std::memory_order_release);
  }
  metrics::Registry* metrics() const {
    return metrics_.load(std::memory_order_acquire);
  }

  /// Workload governor consulted by Execute (admission + per-query memory
  /// budget, DESIGN.md §13). Null by default: Execute then parses and runs
  /// unmetered. Tables created/adopted while a governor is attached charge
  /// their bytes to its storage budget node. Same lifetime rules as the
  /// access observer: the governor must outlive every table bound to it.
  void set_resource_governor(resource::ResourceGovernor* governor) {
    governor_.store(governor, std::memory_order_release);
  }
  resource::ResourceGovernor* resource_governor() const {
    return governor_.load(std::memory_order_acquire);
  }

  /// One-stop SQL entry point: parse -> optimize -> Executor::Execute, which
  /// admits the statement when a governor is attached and no budget is
  /// given. Reads at the latest committed snapshot unless a view is given.
  /// ExecOptions::workload_class routes admission; ResourceExhausted from
  /// admission or the query budget surfaces here.
  StatusOr<ResultSet> Execute(const std::string& sql);
  StatusOr<ResultSet> Execute(const std::string& sql, const ExecOptions& opts);
  StatusOr<ResultSet> Execute(const std::string& sql, ReadView view,
                              const ExecOptions& opts);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ColumnTable>> tables_;
  std::unordered_map<std::string, std::unique_ptr<RowTable>> row_tables_;
  ExecOptions exec_options_;
  /// exec_pool's pools by thread count; declared after the tables, so the
  /// pools are joined before any table is freed.
  mutable std::map<size_t, std::unique_ptr<ThreadPool>> exec_pools_;
  std::atomic<AccessObserver*> access_observer_{nullptr};
  std::atomic<TierResolver*> tier_resolver_{nullptr};
  std::atomic<metrics::Registry*> metrics_{&metrics::Default()};
  std::atomic<resource::ResourceGovernor*> governor_{nullptr};
};

}  // namespace poly

#endif  // POLY_STORAGE_DATABASE_H_
