#ifndef POLY_STORAGE_ACCESS_HOOKS_H_
#define POLY_STORAGE_ACCESS_HOOKS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace poly {

class ColumnTable;

/// One scan's worth of access against a single partition table, reported by
/// the executors after the partition finishes. Aggregated, not per-row: the
/// observer fires once per (query, partition) pair, so observation cost is
/// bounded by plan shape, never by data volume.
struct AccessEvent {
  /// Partition table name as stored in the catalog (e.g. "orders" or
  /// "orders$aged").
  std::string partition;
  /// Rows the scan actually visited (post-pruning, pre-filter).
  uint64_t rows_scanned = 0;
  /// Bytes touched, using the executors' column-width accounting.
  uint64_t bytes = 0;
  /// True when the scan was served by the primary-key fast path
  /// (TryIdRangePredicate) — the OLTP-shaped "point read" signal, weighted
  /// separately from analytic sweeps by the heat tracker.
  bool point_read = false;
  /// Names of the columns the scan actually read, for per-column heat on
  /// wide tables. The interpreted executor reports the columns its scan
  /// emitted plus its predicate's columns (every schema column when the
  /// scan is unpruned); the compiled executor reports exactly the slots
  /// its fused kernel touched. Empty is valid: observers then attribute
  /// the access to the partition only.
  std::vector<std::string> columns;
};

/// Sink for AccessEvents. Implementations must be thread-safe: both
/// executors call OnAccess concurrently from query threads. The storage
/// layer depends only on this interface, never on src/tiering.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void OnAccess(const AccessEvent& event) = 0;
};

/// Demand-paging hook: when a scan asks the catalog for a partition that is
/// not resident (demoted to warm/cold), the executor offers the miss to the
/// resolver before failing. A tiering daemon implements this by promoting
/// the partition back from ExtendedStorage ("hot-tier miss"). Returning
/// NotFound means "not mine" and the original error propagates, so databases
/// without a resolver behave exactly as before.
///
/// The success value is a *pinned* table reference taken while the resolver
/// still holds its movement lock: the caller can scan it even if the daemon
/// demotes the partition again immediately after — re-looking the name up in
/// the catalog instead would reopen that race.
class TierResolver {
 public:
  virtual ~TierResolver() = default;
  virtual StatusOr<std::shared_ptr<ColumnTable>> ResolveMissing(
      const std::string& table) = 0;
};

}  // namespace poly

#endif  // POLY_STORAGE_ACCESS_HOOKS_H_
