#include "query/plan.h"

namespace poly {

namespace {

/// "[$a,$b,...]" for a list of column positions.
std::string ColumnList(const std::vector<size_t>& cols) {
  std::string out = "[";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i) out += ",";
    out += "$" + std::to_string(cols[i]);
  }
  return out + "]";
}

}  // namespace

std::string PlanNode::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = pad;
  switch (kind) {
    case PlanKind::kScan:
      out += "Scan(" + table;
      if (scan_predicate) out += ", pred=" + scan_predicate->ToString();
      if (scan_columns) out += ", cols=" + ColumnList(*scan_columns);
      out += ")";
      break;
    case PlanKind::kRows:
      out += "Rows(" + table;
      if (rows) out += ", " + std::to_string(rows->num_rows()) + " rows";
      out += ")";
      break;
    case PlanKind::kFilter:
      out += "Filter(" + (predicate ? predicate->ToString() : "true") + ")";
      break;
    case PlanKind::kProject: {
      out += "Project(";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i) out += ", ";
        out += output_names[i] + "=" + projections[i]->ToString();
      }
      out += ")";
      break;
    }
    case PlanKind::kHashJoin:
      out += "HashJoin(left.$" + std::to_string(left_key) + " = right.$" +
             std::to_string(right_key) + ")";
      break;
    case PlanKind::kAggregate:
      out += "Aggregate(groups=" + ColumnList(group_by) +
             ", aggs=" + std::to_string(aggregates.size()) + ")";
      break;
    case PlanKind::kSort:
      out += "Sort(" + std::to_string(sort_keys.size()) + " keys)";
      break;
    case PlanKind::kLimit:
      out += "Limit(" + std::to_string(limit) + ")";
      break;
    case PlanKind::kExchange: {
      switch (exchange_mode) {
        case ExchangeMode::kGather: out += "Exchange(gather)"; break;
        case ExchangeMode::kBroadcast: out += "Exchange(broadcast)"; break;
        case ExchangeMode::kRepartition:
          out += "Exchange(repartition, keys=" + ColumnList(exchange_keys) + ")";
          break;
      }
      break;
    }
    case PlanKind::kPartialAggregate:
      out += "PartialAggregate(groups=" + ColumnList(group_by) + ", slots=" +
             std::to_string(PartialAggLayout::For(aggregates).num_slots()) + ")";
      break;
    case PlanKind::kFinalAggregate:
      out += "FinalAggregate(keys=" + std::to_string(group_by.size()) +
             ", aggs=" + std::to_string(aggregates.size()) + ")";
      break;
  }
  out += "\n";
  for (const auto& child : children) out += child->ToString(indent + 1);
  return out;
}

PlanBuilder PlanBuilder::Scan(std::string table) {
  PlanBuilder b;
  b.root_ = std::make_shared<PlanNode>();
  b.root_->kind = PlanKind::kScan;
  b.root_->table = std::move(table);
  return b;
}

PlanBuilder PlanBuilder::Rows(std::string name, std::shared_ptr<const ResultSet> rows) {
  PlanBuilder b;
  b.root_ = std::make_shared<PlanNode>();
  b.root_->kind = PlanKind::kRows;
  b.root_->table = std::move(name);
  b.root_->rows = std::move(rows);
  return b;
}

PlanBuilder PlanBuilder::From(PlanPtr node) {
  PlanBuilder b;
  b.root_ = std::move(node);
  return b;
}

PlanBuilder PlanBuilder::Filter(ExprPtr predicate) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::Project(std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProject;
  node->projections = std::move(exprs);
  node->output_names = std::move(names);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::HashJoin(PlanPtr right, size_t left_key, size_t right_key) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kHashJoin;
  node->left_key = left_key;
  node->right_key = right_key;
  node->children.push_back(std::move(root_));
  node->children.push_back(std::move(right));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::Aggregate(std::vector<size_t> group_by,
                                   std::vector<AggSpec> aggs) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggs);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::PartialAggregate(std::vector<size_t> group_by,
                                          std::vector<AggSpec> aggs) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kPartialAggregate;
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggs);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::FinalAggregate(std::vector<size_t> group_by,
                                        std::vector<AggSpec> aggs) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kFinalAggregate;
  node->group_by = std::move(group_by);
  node->aggregates = std::move(aggs);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::Exchange(ExchangeMode mode, std::vector<size_t> keys) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kExchange;
  node->exchange_mode = mode;
  node->exchange_keys = std::move(keys);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::Sort(std::vector<SortKey> keys) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSort;
  node->sort_keys = std::move(keys);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PlanBuilder PlanBuilder::Limit(size_t n) && {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->limit = n;
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return std::move(*this);
}

PartialAggLayout PartialAggLayout::For(const std::vector<AggSpec>& user_aggs) {
  PartialAggLayout layout;
  for (const AggSpec& agg : user_aggs) {
    Entry entry;
    entry.func = agg.func;
    entry.slot = layout.partial_specs.size();
    layout.entries.push_back(entry);
    if (agg.func == AggFunc::kAvg) {
      layout.partial_specs.push_back({AggFunc::kSum, agg.input, "s"});
      layout.partial_specs.push_back({AggFunc::kCount, agg.input, "c"});
    } else {
      layout.partial_specs.push_back({agg.func, agg.input, "p"});
    }
  }
  return layout;
}

std::vector<std::string> ScanOutputColumns(const PlanNode& scan, const Schema& schema) {
  std::vector<std::string> names;
  if (scan.scan_columns) {
    for (size_t c : *scan.scan_columns) names.push_back(schema.column(c).name);
  } else {
    for (size_t c = 0; c < schema.num_columns(); ++c) names.push_back(schema.column(c).name);
  }
  return names;
}

}  // namespace poly
