#include "query/optimizer.h"

#include <algorithm>

namespace poly {

namespace {

bool IsLiteralBool(const ExprPtr& e, bool value) {
  return e && e->kind() == ExprKind::kLiteral &&
         e->literal().type() == DataType::kBool && e->literal().AsBool() == value;
}

bool IsConstant(const ExprPtr& e) {
  if (!e) return false;
  switch (e->kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumn:
      return false;
    case ExprKind::kIn:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
    case ExprKind::kNot:
      return IsConstant(e->left());
    default:
      return IsConstant(e->left()) && IsConstant(e->right());
  }
}

}  // namespace

ExprPtr Optimizer::FoldConstants(const ExprPtr& e) {
  if (!e || e->kind() == ExprKind::kLiteral || e->kind() == ExprKind::kColumn) return e;

  if (IsConstant(e)) {
    ++stats_.constants_folded;
    return Expr::Literal(e->Eval(Row{}));
  }

  switch (e->kind()) {
    case ExprKind::kAnd: {
      ExprPtr l = FoldConstants(e->left());
      ExprPtr r = FoldConstants(e->right());
      if (IsLiteralBool(l, true)) return r;
      if (IsLiteralBool(r, true)) return l;
      if (IsLiteralBool(l, false) || IsLiteralBool(r, false)) {
        ++stats_.constants_folded;
        return Expr::Literal(Value::Boolean(false));
      }
      return Expr::And(std::move(l), std::move(r));
    }
    case ExprKind::kOr: {
      ExprPtr l = FoldConstants(e->left());
      ExprPtr r = FoldConstants(e->right());
      if (IsLiteralBool(l, false)) return r;
      if (IsLiteralBool(r, false)) return l;
      if (IsLiteralBool(l, true) || IsLiteralBool(r, true)) {
        ++stats_.constants_folded;
        return Expr::Literal(Value::Boolean(true));
      }
      return Expr::Or(std::move(l), std::move(r));
    }
    case ExprKind::kNot:
      return Expr::Not(FoldConstants(e->left()));
    case ExprKind::kCompare:
      return Expr::Compare(e->cmp_op(), FoldConstants(e->left()),
                           FoldConstants(e->right()));
    case ExprKind::kArithmetic:
      return Expr::Arith(e->arith_op(), FoldConstants(e->left()),
                         FoldConstants(e->right()));
    default:
      return e;
  }
}

PlanPtr Optimizer::Optimize(const PlanPtr& plan) {
  if (!plan) return plan;
  PlanPtr rewritten = Rewrite(plan);
  if (db_ == nullptr) return rewritten;  // pruning needs table widths
  // The root's whole output is the result: every column is needed.
  ColumnMap root_map;
  return PruneColumns(rewritten, /*need=*/nullptr, &root_map);
}

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

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out ? Expr::And(out, c) : c;
  }
  return out;
}

/// Rewrites column indexes by `shift` (used to move predicates from the
/// join output schema into the right input's schema). All referenced
/// columns must be >= shift.
ExprPtr ShiftColumns(const ExprPtr& e, size_t shift) {
  std::vector<size_t> map(static_cast<size_t>(e->MaxColumnIndex() + 1));
  for (size_t c = shift; c < map.size(); ++c) map[c] = c - shift;
  return RemapColumns(e, map);
}

/// Marks a column the pruned layout no longer carries.
constexpr size_t kDropped = SIZE_MAX;

std::vector<size_t> IdentityMap(size_t width) {
  std::vector<size_t> map(width);
  for (size_t c = 0; c < width; ++c) map[c] = c;
  return map;
}

/// Min column index referenced, or SIZE_MAX if none.
size_t MinColumnIndex(const ExprPtr& e) {
  if (!e) return SIZE_MAX;
  if (e->kind() == ExprKind::kColumn) return e->column_index();
  size_t lo = SIZE_MAX;
  if (e->left()) lo = std::min(lo, MinColumnIndex(e->left()));
  if (e->right()) lo = std::min(lo, MinColumnIndex(e->right()));
  return lo;
}

/// Output width of a plan node, where derivable without catalog access
/// (-1 if unknown). Joins/scans need the table schema, so this only has to
/// work for the nodes a filter sits on top of after parsing: project and
/// aggregate expose widths directly; others report unknown.
int KnownWidth(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kProject:
      return static_cast<int>(node.projections.size());
    case PlanKind::kAggregate:
      return static_cast<int>(node.group_by.size() + node.aggregates.size());
    default:
      return -1;
  }
}

}  // namespace

int Optimizer::PlanWidth(const PlanNode& node) const {
  int known = KnownWidth(node);
  if (known >= 0) return known;
  switch (node.kind) {
    case PlanKind::kScan: {
      if (node.scan_columns) return static_cast<int>(node.scan_columns->size());
      if (db_ == nullptr) return -1;
      auto t = db_->GetTable(node.scan_partitions.empty() ? node.table
                                                          : node.scan_partitions[0]);
      return t.ok() ? static_cast<int>((*t)->schema().num_columns()) : -1;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      return PlanWidth(*node.children[0]);
    case PlanKind::kHashJoin: {
      int l = PlanWidth(*node.children[0]);
      int r = PlanWidth(*node.children[1]);
      return l >= 0 && r >= 0 ? l + r : -1;
    }
    default:
      return -1;
  }
}

PlanPtr Optimizer::Rewrite(const PlanPtr& node) {
  // Rewrite children first (bottom-up).
  auto copy = std::make_shared<PlanNode>(*node);
  for (auto& child : copy->children) child = Rewrite(child);

  if (copy->kind == PlanKind::kFilter) {
    copy->predicate = FoldConstants(copy->predicate);
    // Trivial filter elimination.
    if (IsLiteralBool(copy->predicate, true)) return copy->children[0];
    // Join pushdown: conjuncts that reference only one join input move
    // below the join, where they can become scan predicates.
    if (copy->children[0]->kind == PlanKind::kHashJoin) {
      const PlanNode& join = *copy->children[0];
      int left_width = PlanWidth(*join.children[0]);
      if (left_width >= 0) {
        std::vector<ExprPtr> conjuncts;
        SplitConjuncts(copy->predicate, &conjuncts);
        std::vector<ExprPtr> left_side, right_side, remaining;
        for (const ExprPtr& c : conjuncts) {
          int max_col = c->MaxColumnIndex();
          size_t min_col = MinColumnIndex(c);
          if (max_col >= 0 && max_col < left_width) {
            left_side.push_back(c);
          } else if (min_col != SIZE_MAX &&
                     min_col >= static_cast<size_t>(left_width)) {
            right_side.push_back(ShiftColumns(c, static_cast<size_t>(left_width)));
          } else {
            remaining.push_back(c);  // spans both sides (or no columns)
          }
        }
        if (!left_side.empty() || !right_side.empty()) {
          stats_.join_conjuncts_pushed +=
              static_cast<int>(left_side.size() + right_side.size());
          auto new_join = std::make_shared<PlanNode>(join);
          if (!left_side.empty()) {
            new_join->children[0] =
                PlanBuilder::From(new_join->children[0]).Filter(AndAll(left_side)).Build();
          }
          if (!right_side.empty()) {
            new_join->children[1] = PlanBuilder::From(new_join->children[1])
                                        .Filter(AndAll(right_side))
                                        .Build();
          }
          PlanPtr rebuilt = Rewrite(new_join);
          if (remaining.empty()) return rebuilt;
          return PlanBuilder::From(rebuilt).Filter(AndAll(remaining)).Build();
        }
      }
    }
    // Predicate pushdown: Filter(Scan) -> Scan with merged predicate.
    if (copy->children[0]->kind == PlanKind::kScan) {
      auto scan = std::make_shared<PlanNode>(*copy->children[0]);
      scan->scan_predicate = scan->scan_predicate
                                 ? Expr::And(scan->scan_predicate, copy->predicate)
                                 : copy->predicate;
      // The merged predicate may prune partitions the bare scan could not.
      scan->scan_partitions.clear();
      ++stats_.filters_pushed;
      return Rewrite(scan);
    }
  }

  if (copy->kind == PlanKind::kScan) {
    if (copy->scan_predicate) copy->scan_predicate = FoldConstants(copy->scan_predicate);
    if (pruner_ != nullptr && copy->scan_partitions.empty()) {
      std::vector<std::string> parts = pruner_->Prune(copy->table, copy->scan_predicate);
      if (!parts.empty()) {
        copy->scan_partitions = std::move(parts);
        ++stats_.partitions_pruned;
      }
    }
  }
  return copy;
}

PlanPtr Optimizer::PruneColumns(const PlanPtr& node, const std::set<size_t>* need,
                                ColumnMap* map) {
  map->reset();
  auto copy = std::make_shared<PlanNode>(*node);
  switch (node->kind) {
    case PlanKind::kScan: {
      // The pushed predicate is evaluated in table space on its own probe,
      // so only the parent's columns are emitted.
      int width = PlanWidth(*node);
      if (need == nullptr || width < 0 || node->scan_columns ||
          need->size() == static_cast<size_t>(width) ||
          (!need->empty() && *need->rbegin() >= static_cast<size_t>(width))) {
        return node;
      }
      copy->scan_columns.emplace(need->begin(), need->end());
      *map = std::vector<size_t>(static_cast<size_t>(width), kDropped);
      for (size_t i = 0; i < copy->scan_columns->size(); ++i) {
        (**map)[(*copy->scan_columns)[i]] = i;
      }
      return copy;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit: {
      // Row pass-through: the child's layout is this node's layout.
      std::set<size_t> child_need;
      if (need != nullptr) {
        child_need = *need;
        if (node->predicate) node->predicate->CollectColumns(&child_need);
        for (const SortKey& key : node->sort_keys) child_need.insert(key.column);
      }
      copy->children[0] =
          PruneColumns(node->children[0], need ? &child_need : nullptr, map);
      if (*map) {
        copy->predicate = RemapColumns(copy->predicate, **map);
        for (SortKey& key : copy->sort_keys) key.column = (**map)[key.column];
      }
      return copy;
    }
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kPartialAggregate: {
      // A fresh output layout: the child owes only what these expressions
      // read, whatever the parent needs.
      std::set<size_t> child_need(node->group_by.begin(), node->group_by.end());
      for (const ExprPtr& e : node->projections) e->CollectColumns(&child_need);
      for (const AggSpec& agg : node->aggregates) {
        if (agg.input) agg.input->CollectColumns(&child_need);
      }
      ColumnMap child_map;
      copy->children[0] = PruneColumns(node->children[0], &child_need, &child_map);
      if (child_map) {
        for (ExprPtr& e : copy->projections) e = RemapColumns(e, *child_map);
        for (size_t& g : copy->group_by) g = (*child_map)[g];
        for (AggSpec& agg : copy->aggregates) agg.input = RemapColumns(agg.input, *child_map);
      }
      return copy;
    }
    case PlanKind::kHashJoin: {
      int lw = PlanWidth(*node->children[0]);
      int rw = PlanWidth(*node->children[1]);
      if (need == nullptr || lw < 0 || rw < 0 || node->left_key >= static_cast<size_t>(lw) ||
          node->right_key >= static_cast<size_t>(rw) ||
          (!need->empty() && *need->rbegin() >= static_cast<size_t>(lw + rw))) {
        break;
      }
      std::set<size_t> left_need = {node->left_key};
      std::set<size_t> right_need = {node->right_key};
      for (size_t c : *need) {
        if (c < static_cast<size_t>(lw)) {
          left_need.insert(c);
        } else {
          right_need.insert(c - static_cast<size_t>(lw));
        }
      }
      ColumnMap lmap, rmap;
      copy->children[0] = PruneColumns(node->children[0], &left_need, &lmap);
      copy->children[1] = PruneColumns(node->children[1], &right_need, &rmap);
      if (!lmap && !rmap) return copy;
      std::vector<size_t> left = lmap ? *lmap : IdentityMap(static_cast<size_t>(lw));
      std::vector<size_t> right = rmap ? *rmap : IdentityMap(static_cast<size_t>(rw));
      copy->left_key = left[node->left_key];
      copy->right_key = right[node->right_key];
      size_t new_left_width = static_cast<size_t>(
          std::count_if(left.begin(), left.end(), [](size_t c) { return c != kDropped; }));
      for (size_t c : right) left.push_back(c == kDropped ? kDropped : new_left_width + c);
      *map = std::move(left);
      return copy;
    }
    default:
      break;
  }
  // Anything else (exchanges, final aggregates, joins of unknown width)
  // keeps its layout and reads its children whole.
  for (auto& child : copy->children) {
    ColumnMap unchanged;
    child = PruneColumns(child, nullptr, &unchanged);
  }
  return copy;
}

}  // namespace poly
