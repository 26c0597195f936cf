#include "soe/distributed_planner.h"

#include <memory>

#include "soe/partition.h"

namespace poly {

namespace {

/// Splits a predicate into top-level conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind() == ExprKind::kAnd) {
    SplitConjuncts(e->left(), out);
    SplitConjuncts(e->right(), out);
  } else {
    out->push_back(e);
  }
}

/// Partition pruning (DESIGN.md §14.1): an equality conjunct on the
/// partitioning column pins the scan to one partition; anything else scans
/// them all. Conservative by design — a wrong prune would lose rows.
std::vector<size_t> PrunePartitions(const ExprPtr& predicate,
                                    const CatalogService::TableInfo& info) {
  std::vector<size_t> all(info.spec.num_partitions);
  for (size_t p = 0; p < all.size(); ++p) all[p] = p;
  if (!predicate) return all;
  auto key_col = info.schema.IndexOf(info.spec.column);
  if (!key_col.ok()) return all;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(predicate, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare || c->cmp_op() != CmpOp::kEq) continue;
    const ExprPtr& l = c->left();
    const ExprPtr& r = c->right();
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    if (l && r && l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral) {
      col = l.get();
      lit = r.get();
    } else if (l && r && l->kind() == ExprKind::kLiteral &&
               r->kind() == ExprKind::kColumn) {
      col = r.get();
      lit = l.get();
    } else {
      continue;
    }
    if (col->column_index() != *key_col) continue;
    return {PartitionOf(lit->literal(), info.spec)};
  }
  return all;
}

/// Name of stage `index`'s output, under which its consumers' row leaves
/// receive it ("__dist." keeps it clear of user and partition tables).
std::string StageOutputName(size_t index) {
  return "__dist.x" + std::to_string(index);
}

/// The leaf a consumer fragment reads staged input `name` through; the
/// cluster binds each task's delivered rows into it.
PlanPtr StagedLeaf(const std::string& name) {
  return PlanBuilder::Rows(name, nullptr).Build();
}

/// Deep copy of `root` with the subtree whose node is `target` replaced by
/// `replacement` (pointer identity; expressions stay shared).
PlanPtr ReplaceSubtree(const PlanPtr& root, const PlanNode* target,
                       const PlanPtr& replacement) {
  if (root.get() == target) return replacement;
  auto copy = std::make_shared<PlanNode>(*root);
  for (auto& child : copy->children) {
    child = ReplaceSubtree(child, target, replacement);
  }
  return copy;
}

const char* ModeName(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kGather: return "gather";
    case ExchangeMode::kBroadcast: return "broadcast";
    case ExchangeMode::kRepartition: return "repartition";
  }
  return "?";
}

}  // namespace

std::string DistributedPlan::ToString() const {
  std::string out = "strategy=" + strategy + "\n";
  for (size_t s = 0; s < stages.size(); ++s) {
    const FragmentStage& st = stages[s];
    out += "stage " + std::to_string(s) + " [" + st.label + "]: ";
    if (st.by_partition) {
      out += st.table + " x" + std::to_string(st.partitions.size()) + " partitions";
    } else {
      out += std::to_string(st.num_tasks) + " node tasks";
    }
    out += " -> " + std::string(ModeName(st.mode));
    if (!st.output_name.empty()) out += " as " + st.output_name;
    out += "\n";
    if (st.plan) out += st.plan->ToString(1);
  }
  if (residual) {
    out += "residual (coordinator):\n" + residual->ToString(1);
  }
  return out;
}

StatusOr<DistributedPlan> DistributedPlanner::Plan(const PlanPtr& optimized) {
  if (!optimized) return Status::InvalidArgument("null plan");
  int live = static_cast<int>(discovery_->LiveNodes().size());
  if (live <= 0) return Status::Unavailable("no live nodes to plan onto");

  DistributedPlan out;

  // Peel coordinator-side residual operators off the top: limit, sort,
  // projection, and filters (a filter here is HAVING or an un-pushable
  // cross-side join conjunct — both run fine over the gathered core rows).
  const PlanNode* core = optimized.get();
  while ((core->kind == PlanKind::kLimit || core->kind == PlanKind::kSort ||
          core->kind == PlanKind::kProject ||
          core->kind == PlanKind::kFilter) &&
         core->children.size() == 1) {
    core = core->children[0].get();
  }

  POLY_ASSIGN_OR_RETURN(bool placed, LowerCore(*core, live, &out));
  if (!placed) {
    out.stages.clear();
    out.strategy = "gather";
    out.use_gather_fallback = true;
    return out;
  }

  if (core != optimized.get()) {
    out.residual_input = "__dist.gathered";
    out.residual = ReplaceSubtree(optimized, core,
                                  PlanBuilder::Scan(out.residual_input).Build());
  }
  return out;
}

StatusOr<bool> DistributedPlanner::LowerCore(const PlanNode& core, int live,
                                             DistributedPlan* out) {
  // Case A: bare scan — per-partition gather with partition pruning.
  if (core.kind == PlanKind::kScan) {
    POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info,
                          catalog_->Lookup(core.table));
    FragmentStage stage;
    stage.by_partition = true;
    stage.table = core.table;
    stage.partitions = PrunePartitions(core.scan_predicate, *info);
    stage.plan = PlanBuilder::From(std::make_shared<PlanNode>(core))
                     .Exchange(ExchangeMode::kGather)
                     .Build();
    stage.mode = ExchangeMode::kGather;
    out->gather_columns = ScanOutputColumns(core, info->schema);
    stage.output_width = out->gather_columns.size();
    stage.label = "scan(" + core.table + ")";
    out->stages.push_back(std::move(stage));
    out->strategy = "scan";
    return true;
  }

  // Case B/D: aggregate of any key arity over a scan or an equi-join.
  if (core.kind == PlanKind::kAggregate && core.children.size() == 1) {
    const PlanNode* input = core.children[0].get();

    if (input->kind == PlanKind::kScan) {
      POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* info,
                            catalog_->Lookup(input->table));
      FragmentStage site;
      site.by_partition = true;
      site.table = input->table;
      site.partitions = PrunePartitions(input->scan_predicate, *info);
      site.label = "partial-aggregate(" + input->table + ")";
      LowerTwoPhaseAggregate(core, std::make_shared<PlanNode>(*input),
                             std::move(site), live,
                             ScanOutputColumns(*input, info->schema), out);
      out->strategy = "two-phase-aggregate";
      return true;
    }

    // Filters between the aggregate and the join (cross-side conjuncts the
    // optimizer could not push into a single scan) execute inside the
    // consumer fragment, right above the join.
    std::vector<const PlanNode*> mid_filters;
    while (input->kind == PlanKind::kFilter && input->children.size() == 1) {
      mid_filters.push_back(input);
      input = input->children[0].get();
    }
    if (input->kind == PlanKind::kHashJoin) {
      JoinLowering join;
      POLY_ASSIGN_OR_RETURN(bool ok, LowerJoinInputs(*input, live, out, &join));
      if (!ok) return false;
      PlanPtr body = join.body;
      for (auto it = mid_filters.rbegin(); it != mid_filters.rend(); ++it) {
        auto filter = std::make_shared<PlanNode>(**it);
        filter->children = {body};
        body = filter;
      }
      FragmentStage site;
      site.by_partition = join.consumer_by_partition;
      site.table = join.consumer_table;
      site.partitions = join.consumer_partitions;
      site.num_tasks = join.consumer_tasks;
      site.inputs = join.consumer_inputs;
      site.label = "join+partial-aggregate";
      LowerTwoPhaseAggregate(core, std::move(body), std::move(site), live,
                             join.columns, out);
      out->strategy = join.strategy + "+aggregate";
      return true;
    }
    return false;
  }

  // Case C: two-table equi-join, gathered at the coordinator.
  if (core.kind == PlanKind::kHashJoin) {
    JoinLowering join;
    POLY_ASSIGN_OR_RETURN(bool ok, LowerJoinInputs(core, live, out, &join));
    if (!ok) return false;
    FragmentStage stage;
    stage.by_partition = join.consumer_by_partition;
    stage.table = join.consumer_table;
    stage.partitions = join.consumer_partitions;
    stage.num_tasks = join.consumer_tasks;
    stage.inputs = join.consumer_inputs;
    stage.plan =
        PlanBuilder::From(join.body).Exchange(ExchangeMode::kGather).Build();
    stage.mode = ExchangeMode::kGather;
    stage.output_width = join.width;
    stage.label = "join";
    out->gather_columns = join.columns;
    out->stages.push_back(std::move(stage));
    out->strategy = join.strategy;
    return true;
  }

  return false;  // three-way joins, subplans we do not model -> gather
}

StatusOr<bool> DistributedPlanner::LowerJoinInputs(const PlanNode& join,
                                                   int live,
                                                   DistributedPlan* out,
                                                   JoinLowering* lowering) {
  if (join.children.size() != 2) return false;
  const PlanNode& left = *join.children[0];
  const PlanNode& right = *join.children[1];
  if (left.kind != PlanKind::kScan || right.kind != PlanKind::kScan) {
    return false;  // deeper shapes (join of join) fall back to gather
  }
  POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* linfo,
                        catalog_->Lookup(left.table));
  POLY_ASSIGN_OR_RETURN(const CatalogService::TableInfo* rinfo,
                        catalog_->Lookup(right.table));
  // Stage widths follow what the (possibly pruned) scans emit.
  std::vector<std::string> right_columns = ScanOutputColumns(right, rinfo->schema);
  lowering->columns = ScanOutputColumns(left, linfo->schema);
  size_t left_width = lowering->columns.size();
  size_t right_width = right_columns.size();
  if (join.left_key >= left_width || join.right_key >= right_width) {
    return false;
  }
  lowering->width = left_width + right_width;
  lowering->columns.insert(lowering->columns.end(), right_columns.begin(),
                           right_columns.end());

  // Join-strategy rule (DESIGN.md §14.3): broadcast the smaller side when
  // its catalog row estimate is at or below the threshold; otherwise
  // repartition both sides by join key.
  bool left_small = linfo->approx_rows <= rinfo->approx_rows;
  uint64_t small_rows = left_small ? linfo->approx_rows : rinfo->approx_rows;

  if (small_rows <= options_.broadcast_threshold_rows) {
    const PlanNode& small = left_small ? left : right;
    const PlanNode& big = left_small ? right : left;
    const CatalogService::TableInfo* small_info = left_small ? linfo : rinfo;
    const CatalogService::TableInfo* big_info = left_small ? rinfo : linfo;

    FragmentStage bcast;
    bcast.by_partition = true;
    bcast.table = small.table;
    bcast.partitions = PrunePartitions(small.scan_predicate, *small_info);
    bcast.plan = PlanBuilder::From(std::make_shared<PlanNode>(small))
                     .Exchange(ExchangeMode::kBroadcast)
                     .Build();
    bcast.mode = ExchangeMode::kBroadcast;
    bcast.output_name = StageOutputName(out->stages.size());
    bcast.output_width = left_small ? left_width : right_width;
    bcast.label = "broadcast(" + small.table + ")";
    int bcast_index = static_cast<int>(out->stages.size());
    std::string bcast_name = bcast.output_name;
    out->stages.push_back(std::move(bcast));

    // The big side's partition tasks join their local rows against the
    // staged broadcast — original left/right order (and thus the build
    // side and output column order) is preserved.
    PlanPtr big_scan = std::make_shared<PlanNode>(big);
    PlanPtr small_scan = StagedLeaf(bcast_name);
    auto body = std::make_shared<PlanNode>();
    body->kind = PlanKind::kHashJoin;
    body->left_key = join.left_key;
    body->right_key = join.right_key;
    body->children = left_small ? std::vector<PlanPtr>{small_scan, big_scan}
                                : std::vector<PlanPtr>{big_scan, small_scan};
    lowering->body = body;
    lowering->consumer_by_partition = true;
    lowering->consumer_table = big.table;
    lowering->consumer_partitions = PrunePartitions(big.scan_predicate, *big_info);
    lowering->consumer_inputs = {{bcast_name, bcast_index}};
    lowering->strategy = "broadcast-join";
    return true;
  }

  // Shuffle: both sides repartition by join key over the fabric; each
  // consumer node joins exactly the co-hashed slices.
  auto MakeShuffleStage = [&](const PlanNode& side,
                              const CatalogService::TableInfo* info,
                              size_t key, size_t width) {
    FragmentStage stage;
    stage.by_partition = true;
    stage.table = side.table;
    stage.partitions = PrunePartitions(side.scan_predicate, *info);
    stage.plan = PlanBuilder::From(std::make_shared<PlanNode>(side))
                     .Exchange(ExchangeMode::kRepartition, {key})
                     .Build();
    stage.mode = ExchangeMode::kRepartition;
    stage.keys = {key};
    stage.output_name = StageOutputName(out->stages.size());
    stage.output_width = width;
    stage.label = "shuffle(" + side.table + ")";
    return stage;
  };

  FragmentStage shl = MakeShuffleStage(left, linfo, join.left_key, left_width);
  int shl_index = static_cast<int>(out->stages.size());
  std::string shl_name = shl.output_name;
  out->stages.push_back(std::move(shl));
  FragmentStage shr = MakeShuffleStage(right, rinfo, join.right_key, right_width);
  int shr_index = static_cast<int>(out->stages.size());
  std::string shr_name = shr.output_name;
  out->stages.push_back(std::move(shr));

  auto body = std::make_shared<PlanNode>();
  body->kind = PlanKind::kHashJoin;
  body->left_key = join.left_key;
  body->right_key = join.right_key;
  body->children = {StagedLeaf(shl_name), StagedLeaf(shr_name)};
  lowering->body = body;
  lowering->consumer_by_partition = false;
  lowering->consumer_tasks = live;
  lowering->consumer_inputs = {{shl_name, shl_index}, {shr_name, shr_index}};
  lowering->strategy = "shuffle-join";
  return true;
}

void DistributedPlanner::LowerTwoPhaseAggregate(
    const PlanNode& agg, PlanPtr body, FragmentStage partial_site, int live,
    const std::vector<std::string>& input_columns, DistributedPlan* out) {
  size_t k = agg.group_by.size();
  PartialAggLayout layout = PartialAggLayout::For(agg.aggregates);

  // Phase 1: partial aggregation where the data (or the join output)
  // lives, repartitioned by the leading group-key columns of its own
  // output. A global aggregate (k = 0) funnels every partial to one task.
  std::vector<size_t> repart_keys(k);
  for (size_t g = 0; g < k; ++g) repart_keys[g] = g;

  FragmentStage partial = std::move(partial_site);
  partial.plan = PlanBuilder::From(std::move(body))
                     .PartialAggregate(agg.group_by, agg.aggregates)
                     .Exchange(ExchangeMode::kRepartition, repart_keys)
                     .Build();
  partial.mode = ExchangeMode::kRepartition;
  partial.keys = repart_keys;
  partial.output_name = StageOutputName(out->stages.size());
  partial.output_width = k + layout.num_slots();
  int partial_index = static_cast<int>(out->stages.size());
  std::string partial_name = partial.output_name;
  out->stages.push_back(std::move(partial));

  // Phase 2: merge + finalize on the shuffle consumers, gathered to the
  // coordinator.
  std::vector<size_t> final_keys(k);
  for (size_t g = 0; g < k; ++g) final_keys[g] = g;
  FragmentStage fin;
  fin.by_partition = false;
  fin.num_tasks = k == 0 ? 1 : live;
  fin.inputs = {{partial_name, partial_index}};
  fin.plan = PlanBuilder::From(StagedLeaf(partial_name))
                 .FinalAggregate(final_keys, agg.aggregates)
                 .Exchange(ExchangeMode::kGather)
                 .Build();
  fin.mode = ExchangeMode::kGather;
  fin.output_width = k + agg.aggregates.size();
  fin.label = "final-aggregate";
  out->stages.push_back(std::move(fin));

  out->gather_columns.clear();
  for (size_t g : agg.group_by) {
    out->gather_columns.push_back(g < input_columns.size() ? input_columns[g]
                                                           : "_g");
  }
  for (const AggSpec& spec : agg.aggregates) {
    out->gather_columns.push_back(spec.output_name);
  }
}

}  // namespace poly
