#ifndef POLY_SOE_RDD_H_
#define POLY_SOE_RDD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "soe/cluster.h"

namespace poly {

/// Spark-style resilient-dataset facade over an SOE table (§IV-C second
/// integration: "integration is performed into the Spark framework as RDD
/// objects by utilizing SAP HANA SOE for relevant operations like join,
/// filters, aggregation etc. By wrapping SAP HANA SOE in RDD objects
/// customers can still use all Spark functionality").
///
/// Transformations are lazy. Filters expressed as engine predicates are
/// *pushed down* into the distributed scan; lambda-based map/filter stages
/// run framework-side after collection (exactly the split a Spark data
/// source with filter pushdown has). Actions (Collect/Count/Aggregate)
/// trigger execution. The "resilient" half: an action that fails because a
/// partition lost its replicas recomputes the missing data from the shared
/// log (Rebalance) and re-runs — the engine-side analogue of Spark's
/// lineage recompute.
class SoeRdd {
 public:
  using RowPredicate = std::function<bool(const Row&)>;
  using RowMapper = std::function<Row(const Row&)>;

  /// Roots an RDD at a distributed table.
  static SoeRdd FromTable(SoeCluster* cluster, std::string table);

  /// Engine-evaluable filter: pushed into the SOE scan.
  SoeRdd Where(ExprPtr predicate) const;
  /// Arbitrary framework-side filter: runs after rows leave the engine.
  SoeRdd Filter(RowPredicate predicate) const;
  /// Framework-side map.
  SoeRdd Map(RowMapper mapper) const;

  // ---- actions ----

  /// Materializes the dataset (scan + framework stages).
  StatusOr<std::vector<Row>> Collect() const;
  StatusOr<uint64_t> Count() const;

  /// Aggregation action. With no framework-side stages the whole
  /// computation is pushed to the SOE coordinator; otherwise rows are
  /// collected first and aggregated framework-side (same result, more
  /// traffic — Count()/stats show the difference).
  StatusOr<ResultSet> AggregateByKey(const std::string& group_column,
                                     std::vector<AggSpec> aggregates) const;

  /// True if every pending stage can be pushed to the engine.
  bool FullyPushable() const { return stages_.empty(); }

 private:
  struct Stage {
    RowPredicate filter;  // exactly one of filter/mapper is set
    RowMapper mapper;
  };

  /// The table scan with every Where() predicate pushed into it.
  PlanPtr ScanPlan() const;

  SoeCluster* cluster_ = nullptr;
  std::string table_;
  ExprPtr pushed_predicate_;  // conjunction of Where() calls
  std::vector<Stage> stages_;
};

}  // namespace poly

#endif  // POLY_SOE_RDD_H_
