#include "soe/rdd.h"

#include "query/executor.h"
#include "storage/mvcc.h"

namespace poly {

SoeRdd SoeRdd::FromTable(SoeCluster* cluster, std::string table) {
  SoeRdd rdd;
  rdd.cluster_ = cluster;
  rdd.table_ = std::move(table);
  return rdd;
}

SoeRdd SoeRdd::Where(ExprPtr predicate) const {
  SoeRdd out = *this;
  if (!out.stages_.empty()) {
    // A framework stage already intervened; the engine cannot see through
    // it, so the predicate joins the framework stages instead.
    Stage stage;
    ExprPtr p = std::move(predicate);
    stage.filter = [p](const Row& row) { return p->EvalBool(row); };
    out.stages_.push_back(std::move(stage));
    return out;
  }
  out.pushed_predicate_ = out.pushed_predicate_
                              ? Expr::And(out.pushed_predicate_, std::move(predicate))
                              : std::move(predicate);
  return out;
}

SoeRdd SoeRdd::Filter(RowPredicate predicate) const {
  SoeRdd out = *this;
  Stage stage;
  stage.filter = std::move(predicate);
  out.stages_.push_back(std::move(stage));
  return out;
}

SoeRdd SoeRdd::Map(RowMapper mapper) const {
  SoeRdd out = *this;
  Stage stage;
  stage.mapper = std::move(mapper);
  out.stages_.push_back(std::move(stage));
  return out;
}

namespace {

/// Spark-style lineage recompute: when a partition becomes unanswerable
/// (replica loss), rebuild it from the shared log — the lineage — via
/// Rebalance, then re-run the action once. Any other error passes through.
template <typename Action>
auto WithLineageRecompute(SoeCluster* cluster, const Action& action)
    -> decltype(action()) {
  auto result = action();
  if (result.ok() || !result.status().IsUnavailable()) return result;
  Status rebuilt = cluster->Rebalance();
  if (!rebuilt.ok()) return result;  // original failure is the better signal
  return action();
}

/// Runs `plan` — a scan, or an aggregate directly over one — as the
/// planner's fragments on the cluster.
StatusOr<ResultSet> RunPlanned(SoeCluster* cluster, const PlanPtr& plan) {
  DistributedPlanner planner(&cluster->catalog(), &cluster->discovery());
  POLY_ASSIGN_OR_RETURN(DistributedPlan dplan, planner.Plan(plan));
  return cluster->RunFragments(dplan);
}

}  // namespace

PlanPtr SoeRdd::ScanPlan() const {
  PlanPtr scan = PlanBuilder::Scan(table_).Build();
  scan->scan_predicate = pushed_predicate_;
  return scan;
}

StatusOr<std::vector<Row>> SoeRdd::Collect() const {
  POLY_ASSIGN_OR_RETURN(ResultSet rs, WithLineageRecompute(cluster_, [&] {
                          return RunPlanned(cluster_, ScanPlan());
                        }));
  std::vector<Row> rows = std::move(rs.rows);
  for (const Stage& stage : stages_) {
    std::vector<Row> next;
    next.reserve(rows.size());
    for (Row& row : rows) {
      if (stage.filter) {
        if (stage.filter(row)) next.push_back(std::move(row));
      } else {
        next.push_back(stage.mapper(row));
      }
    }
    rows = std::move(next);
  }
  return rows;
}

StatusOr<uint64_t> SoeRdd::Count() const {
  if (FullyPushable()) {
    PlanPtr count =
        PlanBuilder::From(ScanPlan()).Aggregate({}, {{AggFunc::kCount, nullptr, "cnt"}}).Build();
    POLY_ASSIGN_OR_RETURN(ResultSet rs, WithLineageRecompute(cluster_, [&] {
                            return RunPlanned(cluster_, count);
                          }));
    return static_cast<uint64_t>(rs.rows[0][0].AsInt());
  }
  POLY_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect());
  return rows.size();
}

StatusOr<ResultSet> SoeRdd::AggregateByKey(const std::string& group_column,
                                           std::vector<AggSpec> aggregates) const {
  POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info,
                        cluster_->catalog().Lookup(table_));
  POLY_ASSIGN_OR_RETURN(size_t group_col, info->schema.IndexOf(group_column));
  if (FullyPushable()) {
    PlanPtr plan = PlanBuilder::From(ScanPlan()).Aggregate({group_col}, aggregates).Build();
    return WithLineageRecompute(cluster_, [&] { return RunPlanned(cluster_, plan); });
  }
  // Framework-side fallback: collect, then run the executor's aggregate
  // over the collected rows bound into a row leaf.
  POLY_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect());
  for (const Row& row : rows) {
    if (group_col >= row.size()) {
      return Status::InvalidArgument("map stage dropped the group column");
    }
  }
  auto input = std::make_shared<ResultSet>();
  for (size_t c = 0; c < info->schema.num_columns(); ++c) {
    input->column_names.push_back(info->schema.column(c).name);
  }
  input->rows = std::move(rows);
  Database no_tables;  // the row leaf is the plan's only input
  Executor exec(&no_tables, LatestCommittedView());
  return exec.Execute(PlanBuilder::Rows(table_, std::move(input))
                          .Aggregate({group_col}, std::move(aggregates))
                          .Build());
}

}  // namespace poly
