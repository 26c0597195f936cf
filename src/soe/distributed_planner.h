#ifndef POLY_SOE_DISTRIBUTED_PLANNER_H_
#define POLY_SOE_DISTRIBUTED_PLANNER_H_

#include <string>
#include <vector>

#include "query/plan.h"
#include "soe/services.h"

namespace poly {

/// A staged (exchanged) input one fragment reads: the output of an earlier
/// stage, bound per task into the fragment's row leaf of the same name.
struct StagedInput {
  std::string name;        ///< name of the fragment plan's row leaf
  int producer_stage = -1; ///< index into DistributedPlan::stages
};

/// One stage of a distributed plan: a set of fragment tasks sharing one
/// plan shape, sited either per partition of a catalog table (replica
/// failover applies) or on `num_tasks` freely assignable nodes, whose
/// common output flows through the exchange at the fragment's root.
struct FragmentStage {
  // -- placement --
  bool by_partition = false;
  std::string table;               ///< by_partition: the catalog table
  std::vector<size_t> partitions;  ///< by_partition: pruned partition ids
  int num_tasks = 0;               ///< !by_partition: consumer task count

  // -- the fragment --
  /// Plan every task executes. The root is a kExchange describing the
  /// stage's output; leaf scans name `table` (patched to the task's
  /// partition table at dispatch), row leaves name a staged input.
  PlanPtr plan;
  std::vector<StagedInput> inputs;

  // -- output exchange (mirrors the plan root) --
  ExchangeMode mode = ExchangeMode::kGather;
  std::vector<size_t> keys;     ///< repartition hash columns
  std::string output_name;      ///< consumers' row-leaf name (non-gather stages)
  size_t output_width = 0;
  std::string label;            ///< short human label for spans/annotation
};

/// A lowered distributed plan: fragment stages in execution (topological)
/// order — the last stage gathers to the coordinator — plus an optional
/// coordinator residual over the gathered rows (projection, HAVING, sort,
/// limit), whose leaf scans `residual_input`.
struct DistributedPlan {
  std::vector<FragmentStage> stages;
  PlanPtr residual;                ///< null = gathered rows are final
  std::string residual_input;
  std::vector<std::string> gather_columns;  ///< names of the gathered rows

  /// "scan", "two-phase-aggregate", "broadcast-join", "shuffle-join",
  /// "broadcast-join+aggregate", "shuffle-join+aggregate", or "gather"
  /// (the explicit last-resort: ship every table to the coordinator).
  std::string strategy;
  bool use_gather_fallback = false;

  /// Annotated plan for EXPLAIN-style introspection: the strategy, one
  /// line per stage with placement and exchange mode, each fragment plan,
  /// and the coordinator residual.
  std::string ToString() const;
};

/// Lowers an optimized single-node plan into a DAG of per-node fragments
/// (DESIGN.md §14): partition-pruned scans stay node-local, equi-joins
/// become broadcast joins when one side is small by catalog stats (else
/// repartition-hash joins shuffled by join key), and GROUP BY of any arity
/// becomes partial-per-node -> repartition-by-key -> final. Shapes it
/// cannot place come back with `use_gather_fallback` set — the bridge's
/// gather-and-execute is the explicit last resort, not a silent default.
class DistributedPlanner {
 public:
  struct Options {
    /// An equi-join side at or below this many catalog-estimated rows is
    /// broadcast instead of shuffled (DESIGN.md §14.3).
    uint64_t broadcast_threshold_rows = 2048;
  };

  DistributedPlanner(const CatalogService* catalog,
                     const DiscoveryService* discovery, Options options)
      : catalog_(catalog), discovery_(discovery), options_(options) {}
  DistributedPlanner(const CatalogService* catalog,
                     const DiscoveryService* discovery)
      : DistributedPlanner(catalog, discovery, Options()) {}

  StatusOr<DistributedPlan> Plan(const PlanPtr& optimized);

 private:
  /// Producer stages + join body shared by the plain-join and
  /// join-then-aggregate lowerings.
  struct JoinLowering {
    PlanPtr body;  ///< HashJoin over local scans and staged row leaves
    bool consumer_by_partition = false;  ///< broadcast: big side's partitions
    std::string consumer_table;
    std::vector<size_t> consumer_partitions;
    int consumer_tasks = 0;
    std::vector<StagedInput> consumer_inputs;
    std::string strategy;
    size_t width = 0;
    std::vector<std::string> columns;
  };

  /// Classifies and lowers the core (post-residual) plan; returns false if
  /// the shape cannot be placed (caller falls back to gather).
  StatusOr<bool> LowerCore(const PlanNode& core, int live, DistributedPlan* out);
  StatusOr<bool> LowerJoinInputs(const PlanNode& join, int live,
                                 DistributedPlan* out, JoinLowering* lowering);
  /// Appends the repartition-partials -> final-aggregate stage pair for an
  /// aggregate whose input is produced by the stage described by `body`.
  void LowerTwoPhaseAggregate(const PlanNode& agg, PlanPtr body,
                              FragmentStage partial_site, int live,
                              const std::vector<std::string>& input_columns,
                              DistributedPlan* out);

  const CatalogService* catalog_;
  const DiscoveryService* discovery_;
  Options options_;
};

}  // namespace poly

#endif  // POLY_SOE_DISTRIBUTED_PLANNER_H_
