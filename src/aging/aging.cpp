#include "aging/aging.h"

#include <map>
#include <set>
#include <unordered_set>

#include "common/metrics.h"

namespace poly {

Status AgingManager::AddRule(AgingRule rule) {
  for (const auto& existing : rules_) {
    if (existing.name == rule.name) {
      return Status::AlreadyExists("aging rule '" + rule.name + "' exists");
    }
  }
  rules_.push_back(std::move(rule));
  Status cycle = CheckNoCycle();
  if (!cycle.ok()) {
    rules_.pop_back();
    return cycle;
  }
  return Status::OK();
}

Status AgingManager::CheckNoCycle() const {
  // DFS over the dependency graph with colors.
  std::map<std::string, const AgingRule*> by_name;
  for (const auto& r : rules_) by_name[r.name] = &r;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::function<Status(const AgingRule&)> visit = [&](const AgingRule& r) -> Status {
    color[r.name] = 1;
    for (const auto& dep : r.depends_on) {
      auto it = by_name.find(dep);
      if (it == by_name.end()) continue;  // unknown deps are checked at Run
      if (color[dep] == 1) {
        return Status::InvalidArgument("aging dependency cycle through '" + dep + "'");
      }
      if (color[dep] == 0) POLY_RETURN_IF_ERROR(visit(*it->second));
    }
    color[r.name] = 2;
    return Status::OK();
  };
  for (const auto& r : rules_) {
    if (color[r.name] == 0) POLY_RETURN_IF_ERROR(visit(r));
  }
  return Status::OK();
}

StatusOr<AgingStats> AgingManager::RunAging() {
  // Topological order by repeated selection.
  std::map<std::string, const AgingRule*> by_name;
  for (const auto& r : rules_) by_name[r.name] = &r;
  std::vector<const AgingRule*> order;
  std::set<std::string> done;
  while (order.size() < rules_.size()) {
    bool progressed = false;
    for (const auto& r : rules_) {
      if (done.count(r.name)) continue;
      bool ready = true;
      for (const auto& dep : r.depends_on) {
        if (!by_name.count(dep)) {
          return Status::InvalidArgument("aging rule '" + r.name +
                                         "' depends on unknown rule '" + dep + "'");
        }
        if (!done.count(dep)) ready = false;
      }
      if (ready) {
        order.push_back(&r);
        done.insert(r.name);
        progressed = true;
      }
    }
    if (!progressed) return Status::InvalidArgument("aging dependency cycle");
  }

  AgingStats stats;
  for (const AgingRule* rule : order) {
    POLY_ASSIGN_OR_RETURN(ColumnTable * hot, db_->GetTable(rule->table));
    // Aged partition created on demand with the same schema.
    std::string aged_name = AgedName(rule->table);
    ColumnTable* aged;
    auto aged_or = db_->GetTable(aged_name);
    if (aged_or.ok()) {
      aged = *aged_or;
    } else {
      POLY_ASSIGN_OR_RETURN(aged, db_->CreateTable(aged_name, hot->schema()));
    }

    // Guard key set: keys present in the referenced table's aged partition.
    std::unordered_set<int64_t> guard_keys;
    size_t guard_fk_col = 0;
    bool has_guard = rule->guard.has_value();
    if (has_guard) {
      POLY_ASSIGN_OR_RETURN(guard_fk_col, hot->schema().IndexOf(rule->guard->fk_column));
      auto other_aged = db_->GetTable(AgedName(rule->guard->other_table));
      if (other_aged.ok()) {
        POLY_ASSIGN_OR_RETURN(size_t key_col, (*other_aged)
                                                  ->schema()
                                                  .IndexOf(rule->guard->other_key_column));
        ReadView view = tm_->AutoCommitView();
        ColumnTable::ReadGuard aged_rows(*other_aged);
        aged_rows.ScanVisible(view, [&](uint64_t r) {
          Value k = aged_rows.GetValue(r, key_col);
          if (!k.is_null()) guard_keys.insert(k.AsInt());
        });
      }
    }

    ReadView view = tm_->AutoCommitView();
    std::vector<uint64_t> to_move;
    ColumnTable::ReadGuard hot_rows(hot);
    hot_rows.ScanVisible(view, [&](uint64_t r) {
      Row row = hot_rows.GetRow(r);
      if (rule->predicate && !rule->predicate->EvalBool(row)) return;
      if (has_guard) {
        Value fk = row[guard_fk_col];
        if (fk.is_null() || !guard_keys.count(fk.AsInt())) {
          ++stats.rows_blocked_by_guard;
          return;
        }
      }
      to_move.push_back(r);
    });

    if (to_move.empty()) continue;
    auto txn = tm_->Begin();
    for (uint64_t r : to_move) {
      Row row = hot_rows.GetRow(r);
      POLY_RETURN_IF_ERROR(tm_->Delete(txn.get(), hot, r));
      POLY_RETURN_IF_ERROR(tm_->Insert(txn.get(), aged, row));
    }
    POLY_RETURN_IF_ERROR(tm_->Commit(txn.get()));
    stats.rows_aged += to_move.size();
    populated_aged_.insert(rule->table);
  }
  metrics::Registry& reg = metrics::Default();
  reg.counter("aging.runs")->Add(1);
  reg.counter("aging.rows_aged")->Add(stats.rows_aged);
  reg.counter("aging.rows_blocked")->Add(stats.rows_blocked_by_guard);
  return stats;
}

namespace {

/// Collects top-level conjuncts of a predicate.
void CollectConjuncts(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (!e) return;
  if (e->kind() == ExprKind::kAnd) {
    CollectConjuncts(e->left(), out);
    CollectConjuncts(e->right(), out);
  } else {
    out->push_back(e.get());
  }
}

/// Upper/lower bound semantics of a comparison atom on one column.
struct Atom {
  size_t column;
  CmpOp op;
  Value value;
};

bool AtomFromExpr(const Expr& e, Atom* atom) {
  if (e.kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = e.left();
  const ExprPtr& r = e.right();
  if (!l || !r || l->kind() != ExprKind::kColumn || r->kind() != ExprKind::kLiteral) {
    return false;
  }
  atom->column = l->column_index();
  atom->op = e.cmp_op();
  atom->value = r->literal();
  return true;
}

/// True if "x <op1> a" and "x <op2> b" cannot both hold.
bool AtomsContradict(CmpOp op1, const Value& a, CmpOp op2, const Value& b) {
  auto upper = [](CmpOp op) { return op == CmpOp::kLt || op == CmpOp::kLe; };
  auto lower = [](CmpOp op) { return op == CmpOp::kGt || op == CmpOp::kGe; };
  // x < a  vs  x > b : contradiction iff a <= b (with <=/>= edge handling).
  if (upper(op1) && lower(op2)) {
    if (a < b || a == b) {
      // equality allowed only when both are inclusive
      if (a == b && op1 == CmpOp::kLe && op2 == CmpOp::kGe) return false;
      return true;
    }
    return false;
  }
  if (lower(op1) && upper(op2)) return AtomsContradict(op2, b, op1, a);
  if (op1 == CmpOp::kEq && upper(op2)) {
    return !(a < b) && !(a == b && op2 == CmpOp::kLe);
  }
  if (op1 == CmpOp::kEq && lower(op2)) {
    return !(b < a) && !(a == b && op2 == CmpOp::kGe);
  }
  // Equality/equality must be handled before the operand swap below, which
  // would otherwise recurse forever for kEq/kEq pairs.
  if (op1 == CmpOp::kEq && op2 == CmpOp::kEq) return !(a == b);
  if (op2 == CmpOp::kEq) return AtomsContradict(op2, b, op1, a);
  return false;
}

}  // namespace

bool AgingManager::GuaranteeContradictsPredicate(const AgingGuarantee& guarantee,
                                                 const Schema& schema,
                                                 const ExprPtr& predicate) {
  if (!predicate) return false;
  auto col = schema.IndexOf(guarantee.column);
  if (!col.ok()) return false;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  for (const Expr* c : conjuncts) {
    Atom atom;
    if (!AtomFromExpr(*c, &atom)) continue;
    if (atom.column != *col) continue;
    if (AtomsContradict(guarantee.op, guarantee.value, atom.op, atom.value)) {
      return true;  // one impossible conjunct kills the whole conjunction
    }
  }
  return false;
}

std::vector<std::string> AgingManager::Prune(const std::string& table,
                                             const ExprPtr& predicate) const {
  // Only tables with at least one rule are partition-managed.
  const AgingRule* rule = nullptr;
  for (const auto& r : rules_) {
    if (r.table == table) rule = &r;
  }
  if (rule == nullptr) return {};
  metrics::Registry& reg = metrics::Default();
  reg.counter("aging.prune.calls")->Add(1);
  std::vector<std::string> partitions = {table};
  std::string aged = AgedName(table);
  if (!populated_aged_.count(table)) return partitions;  // nothing aged yet
  auto hot = db_->GetTable(table);
  if (hot.ok() &&
      GuaranteeContradictsPredicate(rule->guarantee, (*hot)->schema(), predicate)) {
    reg.counter("aging.prune.pruned")->Add(1);
    return partitions;  // aged partition provably irrelevant
  }
  reg.counter("aging.prune.kept")->Add(1);
  partitions.push_back(aged);
  return partitions;
}

std::vector<std::string> AgingManager::Partitions(const std::string& table) const {
  std::vector<std::string> out = {table};
  if (populated_aged_.count(table)) out.push_back(AgedName(table));
  return out;
}

Status StatsPruner::Analyze(const std::string& table,
                            const std::vector<std::string>& partitions,
                            const std::string& column) {
  std::vector<PartitionStats> stats;
  for (const auto& part : partitions) {
    POLY_ASSIGN_OR_RETURN(ColumnTable * t, db_->GetTable(part));
    POLY_ASSIGN_OR_RETURN(size_t col, t->schema().IndexOf(column));
    PartitionStats ps;
    ps.name = part;
    ps.column = column;
    ReadView view = tm_->AutoCommitView();
    ColumnTable::ReadGuard g(t);
    g.ScanVisible(view, [&](uint64_t r) {
      Value v = g.GetValue(r, col);
      if (v.is_null()) return;
      if (!ps.has_rows || v < ps.min) ps.min = v;
      if (!ps.has_rows || ps.max < v) ps.max = v;
      ps.has_rows = true;
    });
    stats.push_back(std::move(ps));
  }
  tables_[table] = std::move(stats);
  return Status::OK();
}

std::vector<std::string> StatsPruner::Prune(const std::string& table,
                                            const ExprPtr& predicate) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return {};
  std::vector<std::string> out;
  for (const PartitionStats& ps : it->second) {
    if (!ps.has_rows) continue;  // empty partitions never need scanning
    bool needed = true;
    if (predicate) {
      auto t = db_->GetTable(ps.name);
      if (t.ok()) {
        auto col = (*t)->schema().IndexOf(ps.column);
        if (col.ok()) {
          std::vector<const Expr*> conjuncts;
          CollectConjuncts(predicate, &conjuncts);
          for (const Expr* c : conjuncts) {
            Atom atom;
            if (!AtomFromExpr(*c, &atom) || atom.column != *col) continue;
            // Partition range [min, max] vs atom: disjoint -> prune.
            bool possible = true;
            switch (atom.op) {
              case CmpOp::kGe: possible = !(ps.max < atom.value); break;
              case CmpOp::kGt: possible = atom.value < ps.max; break;
              case CmpOp::kLe: possible = !(atom.value < ps.min); break;
              case CmpOp::kLt: possible = ps.min < atom.value; break;
              case CmpOp::kEq:
                possible = !(atom.value < ps.min) && !(ps.max < atom.value);
                break;
              case CmpOp::kNe: possible = true; break;
            }
            if (!possible) {
              needed = false;
              break;
            }
          }
        }
      }
    }
    if (needed) out.push_back(ps.name);
  }
  if (out.empty() && !it->second.empty()) out.push_back(it->second[0].name);
  return out;
}

}  // namespace poly
