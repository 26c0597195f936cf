#ifndef POLY_QUERY_PLAN_H_
#define POLY_QUERY_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "query/expr.h"
#include "query/result.h"

namespace poly {

/// Logical/physical plan node kinds. Plans are trees built by PlanBuilder,
/// rewritten by the Optimizer, and executed by the Executor (interpreted)
/// or QueryCompiler (specialized kernels, §IV-A).
enum class PlanKind {
  kScan,       ///< table scan with optional pushed-down predicate
  kRows,       ///< in-memory rows bound into the plan (no table behind them)
  kFilter,
  kProject,
  kHashJoin,   ///< equi-join, builds hash table on the right input
  kAggregate,  ///< optional group-by + aggregate functions
  kSort,
  kLimit,
  // Exchange-aware nodes of the distributed plan IR (DESIGN.md §14). A
  // single-node Executor runs them too: kExchange is a pass-through (data
  // movement is the cluster's job), and the partial/final pair reproduces
  // the distributed two-phase aggregation on one machine — which is exactly
  // what the coordinator does when it merges shuffled partials.
  kExchange,          ///< fragment boundary: output leaves the fragment
  kPartialAggregate,  ///< per-node phase: mergeable partial slots
  kFinalAggregate,    ///< merge phase over [group cols][partial slots]
};

/// How an exchange moves its fragment's output (DESIGN.md §14.2).
enum class ExchangeMode {
  kGather,       ///< every producer sends to the coordinator
  kBroadcast,    ///< every producer sends everything to every consumer
  kRepartition,  ///< rows routed by hash of the exchange keys
};

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate output: func over an input expression.
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr input;  ///< may be null for COUNT(*)
  std::string output_name;
};

/// One sort key over the node's input columns.
struct SortKey {
  size_t column = 0;
  bool ascending = true;
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// Plan node. A plain struct (no behaviour): the executor interprets it.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  std::vector<PlanPtr> children;

  // kScan
  std::string table;
  ExprPtr scan_predicate;                   ///< pushed down; may be null
  std::vector<std::string> scan_partitions; ///< pruned partition list (aging)
  /// Column pruning: the table columns the scan emits, in this order
  /// (absent = every column). `scan_predicate` stays in table-column space.
  std::optional<std::vector<size_t>> scan_columns;

  // kRows: `table` names the input (a distributed plan's staged input,
  // bound per fragment task by the cluster); `rows` is what the leaf
  // returns, and an unbound leaf fails to execute.
  std::shared_ptr<const ResultSet> rows;

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> projections;
  std::vector<std::string> output_names;

  // kHashJoin
  size_t left_key = 0;
  size_t right_key = 0;

  // kAggregate / kPartialAggregate / kFinalAggregate. The partial/final
  // pair carries the USER aggregate list; both derive the slot layout with
  // PartialAggLayout::For, so producer and merger can never disagree on it.
  std::vector<size_t> group_by;
  std::vector<AggSpec> aggregates;

  // kExchange
  ExchangeMode exchange_mode = ExchangeMode::kGather;
  std::vector<size_t> exchange_keys;  ///< repartition hash columns

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  size_t limit = 0;

  std::string ToString(int indent = 0) const;
};

/// Fluent builder for plan trees.
class PlanBuilder {
 public:
  static PlanBuilder Scan(std::string table);
  /// An in-memory row leaf named `name`, bound to `rows` (may be null and
  /// bound later).
  static PlanBuilder Rows(std::string name, std::shared_ptr<const ResultSet> rows);
  /// Wraps an existing subtree (e.g. for joins).
  static PlanBuilder From(PlanPtr node);

  PlanBuilder Filter(ExprPtr predicate) &&;
  PlanBuilder Project(std::vector<ExprPtr> exprs, std::vector<std::string> names) &&;
  PlanBuilder HashJoin(PlanPtr right, size_t left_key, size_t right_key) &&;
  PlanBuilder Aggregate(std::vector<size_t> group_by, std::vector<AggSpec> aggs) &&;
  PlanBuilder PartialAggregate(std::vector<size_t> group_by,
                               std::vector<AggSpec> aggs) &&;
  PlanBuilder FinalAggregate(std::vector<size_t> group_by,
                             std::vector<AggSpec> aggs) &&;
  PlanBuilder Exchange(ExchangeMode mode, std::vector<size_t> keys = {}) &&;
  PlanBuilder Sort(std::vector<SortKey> keys) &&;
  PlanBuilder Limit(size_t n) &&;

  PlanPtr Build() && { return std::move(root_); }

 private:
  PlanPtr root_;
};

/// How a user aggregate list decomposes into mergeable partial slots:
/// AVG becomes a SUM slot plus a COUNT slot; everything else maps 1:1.
/// A kPartialAggregate emits [group cols][slot 0..n-1]; the matching
/// kFinalAggregate merges slots (COUNT by summing, SUM/MIN/MAX by
/// themselves) and finalizes AVG as merged-sum / merged-count.
struct PartialAggLayout {
  struct Entry {
    AggFunc func = AggFunc::kCount;  ///< the user aggregate
    size_t slot = 0;                 ///< first partial slot (AVG owns slot+1 too)
  };
  std::vector<Entry> entries;          ///< one per user aggregate
  std::vector<AggSpec> partial_specs;  ///< the per-slot partial aggregates

  static PartialAggLayout For(const std::vector<AggSpec>& user_aggs);
  size_t num_slots() const { return partial_specs.size(); }
};

/// Names of the columns a scan over `schema` emits: `scan_columns` when
/// the optimizer pruned it, else every schema column. Row width follows.
/// Every entry of `scan_columns` must index `schema`.
std::vector<std::string> ScanOutputColumns(const PlanNode& scan, const Schema& schema);

}  // namespace poly

#endif  // POLY_QUERY_PLAN_H_
