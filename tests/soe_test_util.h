// Distributed reads for the SOE test suites: plans built by hand, lowered
// by DistributedPlanner and run once through SoeCluster::RunFragments —
// the same path the SQL bridge takes, without its whole-query retries.

#ifndef POLY_TESTS_SOE_TEST_UTIL_H_
#define POLY_TESTS_SOE_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "soe/cluster.h"

namespace poly {

/// Plans `plan` onto `cluster` and runs its fragments.
inline StatusOr<ResultSet> RunPlanned(SoeCluster* cluster, const PlanPtr& plan) {
  DistributedPlanner planner(&cluster->catalog(), &cluster->discovery());
  POLY_ASSIGN_OR_RETURN(DistributedPlan dplan, planner.Plan(plan));
  return cluster->RunFragments(dplan);
}

/// A scan of `table` with `predicate` (table columns; null = every row)
/// pushed into it.
inline PlanPtr ScanOf(const std::string& table, ExprPtr predicate = nullptr) {
  PlanPtr scan = PlanBuilder::Scan(table).Build();
  scan->scan_predicate = std::move(predicate);
  return scan;
}

/// `aggs` grouped by `group_by` (table columns) directly over ScanOf.
inline PlanPtr AggregateOf(const std::string& table, std::vector<size_t> group_by,
                           std::vector<AggSpec> aggs, ExprPtr predicate = nullptr) {
  return PlanBuilder::From(ScanOf(table, std::move(predicate)))
      .Aggregate(std::move(group_by), std::move(aggs))
      .Build();
}

}  // namespace poly

#endif  // POLY_TESTS_SOE_TEST_UTIL_H_
