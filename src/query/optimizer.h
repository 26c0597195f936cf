#ifndef POLY_QUERY_OPTIMIZER_H_
#define POLY_QUERY_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "query/plan.h"
#include "storage/database.h"

namespace poly {

/// Hook through which the aging module (§III, E12) injects semantic
/// partition pruning into planning: given a table and the query predicate,
/// return the partition tables that must be scanned.
class PartitionPruner {
 public:
  virtual ~PartitionPruner() = default;
  virtual std::vector<std::string> Prune(const std::string& table,
                                         const ExprPtr& predicate) const = 0;
};

/// Statistics from one optimization pass.
struct OptimizerStats {
  int filters_pushed = 0;
  int join_conjuncts_pushed = 0;
  int constants_folded = 0;
  int partitions_pruned = 0;
  int partitions_total = 0;
};

/// Rule-based plan rewriter: predicate pushdown into scans, constant
/// folding, trivial-filter elimination, aging-rule partition pruning, and
/// column pruning.
class Optimizer {
 public:
  /// `db` (optional) enables rules that need schema widths: pushing filter
  /// conjuncts below hash joins and column pruning; `pruner` enables
  /// partition pruning.
  explicit Optimizer(const PartitionPruner* pruner = nullptr,
                     const Database* db = nullptr)
      : pruner_(pruner), db_(db) {}

  /// Returns a rewritten copy of the plan (input is not modified).
  PlanPtr Optimize(const PlanPtr& plan);

  const OptimizerStats& stats() const { return stats_; }

  /// Folds constant subtrees of an expression (exposed for tests).
  ExprPtr FoldConstants(const ExprPtr& e);

 private:
  PlanPtr Rewrite(const PlanPtr& node);

  /// Old -> new output column positions of a pruned subtree; empty when
  /// the subtree's output layout did not change.
  using ColumnMap = std::optional<std::vector<size_t>>;

  /// Column pruning: rewrites `node` so its scans emit only the columns
  /// the plan reads (PlanNode::scan_columns). `need` holds the output
  /// columns the parent reads (null = all of them). When the node's output
  /// layout changed, `*map` receives its ColumnMap, and the caller remaps
  /// its own column references through it.
  PlanPtr PruneColumns(const PlanPtr& node, const std::set<size_t>* need, ColumnMap* map);

  /// Output column count of a plan, or -1 if not derivable.
  int PlanWidth(const PlanNode& node) const;

  const PartitionPruner* pruner_;
  const Database* db_;
  OptimizerStats stats_;
};

}  // namespace poly

#endif  // POLY_QUERY_OPTIMIZER_H_
