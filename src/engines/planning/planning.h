#ifndef POLY_ENGINES_PLANNING_PLANNING_H_
#define POLY_ENGINES_PLANNING_PLANNING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_table.h"
#include "txn/transaction_manager.h"

namespace poly {

/// Planning engine (§II-D): "disaggregation or copy processes, providing
/// logical snapshots or versioning" as in-database operators behind SQL
/// extensions. Plan tables carry an explicit `version` column; a planning
/// version is a logical snapshot created by the copy operator.

/// Splits `total` across weights proportionally. Doubles get exact
/// proportional shares; DisaggregateInt uses largest-remainder so the parts
/// sum exactly to the total (the property planners actually need).
StatusOr<std::vector<double>> Disaggregate(double total, const std::vector<double>& weights);
StatusOr<std::vector<int64_t>> DisaggregateInt(int64_t total,
                                               const std::vector<double>& weights);

/// In-database planning operators over a plan table with schema
/// (version INT64, key INT64, value DOUBLE, ...extra dims).
class PlanningEngine {
 public:
  /// `plan_table` must contain columns named `version` (INT64) and
  /// `value` (DOUBLE); both table and tm must outlive the engine.
  static StatusOr<PlanningEngine> Create(TransactionManager* tm,
                                         ColumnTable* plan_table);

  /// Copy operator: duplicates all rows of `from_version` into
  /// `to_version`, scaling values by `factor` (the "copy last year's plan
  /// +5%" workflow). Fails if the target version already has rows.
  StatusOr<uint64_t> CopyVersion(int64_t from_version, int64_t to_version,
                                 double factor = 1.0);

  /// Disaggregation operator: overwrite the values of `version` so that
  /// the version total becomes `new_total` while preserving the current
  /// proportions (classic top-down planning).
  Status DisaggregateVersion(int64_t version, double new_total);

  /// Sum of plan values of a version.
  StatusOr<double> VersionTotal(int64_t version) const;
  /// Distinct versions present.
  std::vector<int64_t> Versions() const;
  /// Row count of a version.
  uint64_t VersionRowCount(int64_t version) const;

 private:
  PlanningEngine(TransactionManager* tm, ColumnTable* table, size_t version_col,
                 size_t value_col)
      : tm_(tm), table_(table), version_col_(version_col), value_col_(value_col) {}

  /// Row ids of a version visible in `view`, read through `g`, which the
  /// caller takes after `view` and reads the rows' values through.
  std::vector<uint64_t> VersionRows(const ColumnTable::ReadGuard& g,
                                    const ReadView& view, int64_t version) const;

  TransactionManager* tm_;
  ColumnTable* table_;
  size_t version_col_ = 0;
  size_t value_col_ = 0;
};

}  // namespace poly

#endif  // POLY_ENGINES_PLANNING_PLANNING_H_
