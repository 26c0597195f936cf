#include "soe/sql_bridge.h"

#include <algorithm>
#include <map>

#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "storage/mvcc.h"
#include "txn/transaction_manager.h"

namespace poly {

namespace {

/// Collects the scan nodes of a plan (in-order).
void CollectScans(const PlanNode& node, std::vector<const PlanNode*>* out) {
  if (node.kind == PlanKind::kScan) out->push_back(&node);
  for (const auto& child : node.children) CollectScans(*child, out);
}

/// True if any node of the plan is a projection (residuals without one
/// keep the gathered column names).
bool HasProject(const PlanNode& node) {
  if (node.kind == PlanKind::kProject) return true;
  for (const auto& child : node.children) {
    if (HasProject(*child)) return true;
  }
  return false;
}

}  // namespace

StatusOr<ResultSet> SoeSqlBridge::GatherAndExecute(const PlanPtr& plan) {
  std::vector<const PlanNode*> scans;
  CollectScans(*plan, &scans);
  // Predicate pushdown survives a table being scanned more than once: the
  // per-scan predicates are OR-combined, so the gathered rows are a
  // superset of what every scan needs, and each scan re-applies its own
  // predicate against the staged table. One unpredicated scan forces the
  // whole table (its OR would be TRUE).
  std::map<std::string, ExprPtr> pushdown;
  std::map<std::string, bool> gather_all;
  for (const PlanNode* scan : scans) {
    if (scan->scan_predicate == nullptr) {
      gather_all[scan->table] = true;
      continue;
    }
    auto [it, inserted] = pushdown.emplace(scan->table, scan->scan_predicate);
    if (!inserted) it->second = Expr::Or(it->second, scan->scan_predicate);
  }

  // Staged, not row leaves: the plan's scans carry table-space predicates and pruned columns.
  Database staging;
  TransactionManager staging_tm;
  for (const PlanNode* scan : scans) {
    if (staging.GetTable(scan->table).ok()) continue;  // already staged
    POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info,
                          cluster_->catalog().Lookup(scan->table));
    // Each table's gather is itself a planned scan of whole rows.
    PlanPtr gather = PlanBuilder::Scan(scan->table).Build();
    gather->scan_predicate = gather_all[scan->table] ? nullptr : pushdown[scan->table];
    DistributedPlanner planner(&cluster_->catalog(), &cluster_->discovery());
    POLY_ASSIGN_OR_RETURN(DistributedPlan dplan, planner.Plan(gather));
    POLY_ASSIGN_OR_RETURN(ResultSet gathered, cluster_->RunFragments(dplan));
    POLY_ASSIGN_OR_RETURN(ColumnTable * t,
                          staging.CreateTable(scan->table, info->schema));
    auto txn = staging_tm.Begin();
    for (const Row& row : gathered.rows) {
      POLY_RETURN_IF_ERROR(staging_tm.Insert(txn.get(), t, row));
    }
    POLY_RETURN_IF_ERROR(staging_tm.Commit(txn.get()));
  }
  Executor exec(&staging, staging_tm.AutoCommitView());
  return exec.Execute(plan);
}

StatusOr<ResultSet> SoeSqlBridge::RunResidual(const DistributedPlan& dplan,
                                              ResultSet gathered) {
  // The residual's leaf scans the staged gather output. Declared types are
  // placeholders — column storage holds Values generically and the residual
  // expressions evaluate whatever the fragments produced.
  // Staged, not a row leaf: perfbench/src/soe_sql.cpp stages residual_input the same way.
  Database staging;
  std::vector<ColumnDef> defs;
  defs.reserve(dplan.gather_columns.size());
  for (size_t c = 0; c < dplan.gather_columns.size(); ++c) {
    defs.emplace_back("_c" + std::to_string(c), DataType::kInt64);
  }
  POLY_ASSIGN_OR_RETURN(
      ColumnTable * t,
      staging.CreateTable(dplan.residual_input, Schema(std::move(defs))));
  for (const Row& row : gathered.rows) {
    POLY_RETURN_IF_ERROR(t->AppendVersion(row, /*cts_stamp=*/1).status());
  }
  Executor exec(&staging, LatestCommittedView());
  POLY_ASSIGN_OR_RETURN(ResultSet rs, exec.Execute(dplan.residual));
  if (!HasProject(*dplan.residual) &&
      rs.column_names.size() == dplan.gather_columns.size()) {
    rs.column_names = dplan.gather_columns;
  }
  rs.trace = gathered.trace;  // keep the distributed span tree
  return rs;
}

StatusOr<ResultSet> SoeSqlBridge::Execute(const std::string& sql) {
  // Shell database: one empty table per catalog entry so the parser can
  // bind column names against the distributed schemas.
  Database shell;
  for (const std::string& name : cluster_->catalog().TableNames()) {
    POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info,
                          cluster_->catalog().Lookup(name));
    POLY_RETURN_IF_ERROR(shell.CreateTable(name, info->schema).status());
  }
  SqlParser parser(&shell);
  POLY_ASSIGN_OR_RETURN(PlanPtr plan, parser.Parse(sql));
  Optimizer opt(nullptr, &shell);
  plan = opt.Optimize(plan);

  if (force_gather_) {
    last_plan_ = "strategy=gather (forced)\n" + plan->ToString();
    return GatherAndExecute(plan);
  }

  // Whole-query attempts. A node lost mid-shuffle fails the run with
  // Unavailable once per-task retries and replica failover are exhausted;
  // the coordinator backs off (advancing virtual time, which fires due
  // heal/kill events) and re-plans, so shuffle consumers are re-sited on
  // the surviving nodes.
  constexpr int kMaxQueryAttempts = 3;
  Status last = Status::Unavailable("distributed query never attempted");
  for (int attempt = 0; attempt < kMaxQueryAttempts; ++attempt) {
    if (attempt > 0) cluster_->CoordinatorBackoff(attempt - 1);
    DistributedPlanner planner(&cluster_->catalog(), &cluster_->discovery(),
                               planner_options_);
    POLY_ASSIGN_OR_RETURN(DistributedPlan dplan, planner.Plan(plan));
    last_plan_ = dplan.ToString();
    if (dplan.use_gather_fallback) {
      // Explicit last resort for shapes the planner cannot place; the
      // annotation above records strategy=gather for introspection.
      return GatherAndExecute(plan);
    }
    auto run = cluster_->RunFragments(dplan);
    if (!run.ok()) {
      if (!run.status().IsUnavailable()) return run.status();
      last = run.status();
      continue;
    }
    if (dplan.residual == nullptr) return run;
    return RunResidual(dplan, std::move(*run));
  }
  return last;
}

}  // namespace poly
