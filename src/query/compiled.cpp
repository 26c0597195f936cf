#include "query/compiled.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "query/executor.h"  // TryIdRangePredicate, for access classification
#include "resource/memory_budget.h"

namespace poly {

namespace {

/// Flat postfix program over doubles — the lowered form of an aggregate
/// input expression ("the generated C").
enum class OpCode : uint8_t { kLoadCol, kConst, kAdd, kSub, kMul, kDiv };

struct Instr {
  OpCode op;
  int col_slot = 0;
  double constant = 0;
};

/// Compiled predicate atom: column <op> constant.
struct RangeCheck {
  int col_slot;
  CmpOp op;
  double constant;
};

/// Registers the column in the slot map, returning its slot.
int SlotFor(size_t col, std::unordered_map<size_t, int>* slots) {
  auto it = slots->find(col);
  if (it != slots->end()) return it->second;
  int slot = static_cast<int>(slots->size());
  slots->emplace(col, slot);
  return slot;
}

bool IsNumericLiteral(const Expr& e) {
  if (e.kind() != ExprKind::kLiteral) return false;
  DataType t = e.literal().type();
  return t == DataType::kInt64 || t == DataType::kDouble || t == DataType::kBool ||
         t == DataType::kTimestamp;
}

/// Lowers an arithmetic expression to postfix; false if unsupported.
bool CompileArith(const ExprPtr& e, std::unordered_map<size_t, int>* slots,
                  std::vector<Instr>* prog) {
  if (!e) return false;
  switch (e->kind()) {
    case ExprKind::kColumn:
      prog->push_back({OpCode::kLoadCol, SlotFor(e->column_index(), slots), 0});
      return true;
    case ExprKind::kLiteral:
      if (!IsNumericLiteral(*e)) return false;
      prog->push_back({OpCode::kConst, 0, e->literal().NumericValue()});
      return true;
    case ExprKind::kArithmetic: {
      if (!CompileArith(e->left(), slots, prog)) return false;
      if (!CompileArith(e->right(), slots, prog)) return false;
      switch (e->arith_op()) {
        case ArithOp::kAdd: prog->push_back({OpCode::kAdd, 0, 0}); break;
        case ArithOp::kSub: prog->push_back({OpCode::kSub, 0, 0}); break;
        case ArithOp::kMul: prog->push_back({OpCode::kMul, 0, 0}); break;
        case ArithOp::kDiv: prog->push_back({OpCode::kDiv, 0, 0}); break;
      }
      return true;
    }
    default:
      return false;
  }
}

/// Lowers a conjunction of `col cmp literal` atoms; false if unsupported.
bool CompilePredicate(const ExprPtr& e, std::unordered_map<size_t, int>* slots,
                      std::vector<RangeCheck>* checks) {
  if (!e) return true;  // no predicate
  if (e->kind() == ExprKind::kAnd) {
    return CompilePredicate(e->left(), slots, checks) &&
           CompilePredicate(e->right(), slots, checks);
  }
  if (e->kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = e->left();
  const ExprPtr& r = e->right();
  if (!l || !r) return false;
  if (l->kind() != ExprKind::kColumn || !IsNumericLiteral(*r)) return false;
  checks->push_back(
      {SlotFor(l->column_index(), slots), e->cmp_op(), r->literal().NumericValue()});
  return true;
}

bool CheckPasses(const RangeCheck& c, double v) {
  switch (c.op) {
    case CmpOp::kEq: return v == c.constant;
    case CmpOp::kNe: return v != c.constant;
    case CmpOp::kLt: return v < c.constant;
    case CmpOp::kLe: return v <= c.constant;
    case CmpOp::kGt: return v > c.constant;
    case CmpOp::kGe: return v >= c.constant;
  }
  return false;
}

double RunProgram(const std::vector<Instr>& prog, const double* const* cols, uint64_t r) {
  double stack[16];
  int sp = 0;
  for (const Instr& ins : prog) {
    switch (ins.op) {
      case OpCode::kLoadCol: stack[sp++] = cols[ins.col_slot][r]; break;
      case OpCode::kConst: stack[sp++] = ins.constant; break;
      case OpCode::kAdd: --sp; stack[sp - 1] += stack[sp]; break;
      case OpCode::kSub: --sp; stack[sp - 1] -= stack[sp]; break;
      case OpCode::kMul: --sp; stack[sp - 1] *= stack[sp]; break;
      case OpCode::kDiv: --sp; stack[sp - 1] /= stack[sp]; break;
    }
  }
  return stack[0];
}

struct CompiledAgg {
  AggFunc func;
  std::vector<Instr> prog;  ///< empty for COUNT(*)
};

struct GroupAccum {
  uint64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

struct KernelSpec {
  bool has_group = false;
  size_t group_col = 0;
  std::unordered_map<size_t, int> slots;  // table column -> slot
  std::vector<RangeCheck> checks;
  std::vector<CompiledAgg> aggs;
};

bool LowerPlan(const PlanPtr& plan, KernelSpec* spec) {
  if (!plan || plan->kind != PlanKind::kAggregate) return false;
  if (plan->children.size() != 1 || plan->children[0]->kind != PlanKind::kScan) {
    return false;
  }
  if (plan->group_by.size() > 1) return false;
  // An Aggregate with no aggregate functions is a DISTINCT dedup wrapper
  // (sql_parser.cpp); the fused kernels only lower real aggregations.
  if (plan->aggregates.empty()) return false;
  const PlanNode& scan = *plan->children[0];
  // Group keys and aggregate inputs index the scan's emitted columns; the
  // kernel reads table columns, so a pruned scan maps them back. (The
  // pushed predicate is in table space already.)
  const std::vector<size_t>* pruned = scan.scan_columns ? &*scan.scan_columns : nullptr;
  spec->has_group = !plan->group_by.empty();
  if (spec->has_group) {
    spec->group_col = plan->group_by[0];
    if (pruned != nullptr) {
      if (spec->group_col >= pruned->size()) return false;
      spec->group_col = (*pruned)[spec->group_col];
    }
  }
  if (!CompilePredicate(scan.scan_predicate, &spec->slots, &spec->checks)) return false;
  for (const AggSpec& agg : plan->aggregates) {
    CompiledAgg ca;
    ca.func = agg.func;
    if (agg.input) {
      ExprPtr input = agg.input;
      if (pruned != nullptr) {
        if (input->MaxColumnIndex() >= static_cast<int>(pruned->size())) return false;
        input = RemapColumns(input, *pruned);
      }
      if (!CompileArith(input, &spec->slots, &ca.prog)) return false;
      if (ca.prog.size() > 15) return false;  // stack bound
    }
    spec->aggs.push_back(std::move(ca));
  }
  return true;
}

bool NumericColumnType(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble || t == DataType::kBool ||
         t == DataType::kTimestamp;
}

}  // namespace

bool QueryCompiler::CanCompile(const PlanPtr& plan) const {
  KernelSpec spec;
  if (!LowerPlan(plan, &spec)) return false;
  // All referenced value columns must be numeric in the scanned table(s).
  const PlanNode& scan = *plan->children[0];
  std::vector<std::string> tables = scan.scan_partitions.empty()
                                        ? std::vector<std::string>{scan.table}
                                        : scan.scan_partitions;
  for (const auto& name : tables) {
    auto table = db_->GetTable(name);
    if (!table.ok()) return false;
    for (const auto& [col, _] : spec.slots) {
      if (col >= (*table)->schema().num_columns()) return false;
      if (!NumericColumnType((*table)->schema().column(col).type)) return false;
    }
    if (spec.has_group && spec.group_col >= (*table)->schema().num_columns()) {
      return false;
    }
  }
  return true;
}

StatusOr<ResultSet> QueryCompiler::Execute(const PlanPtr& plan) {
  KernelSpec spec;
  if (!LowerPlan(plan, &spec) || !CanCompile(plan)) {
    return Status::NotImplemented("plan shape not supported by compiled kernels");
  }
  trace_root_.reset();
  OperatorSpan root;
  uint64_t root_wall0 = 0, root_cpu0 = 0;
  if (trace_) {
    root.label = spec.has_group ? "CompiledGroupAggregate" : "CompiledAggregate";
    root_wall0 = TraceWallNanos();
    root_cpu0 = TraceThreadCpuNanos();
  }
  const PlanNode& scan = *plan->children[0];
  std::vector<std::string> tables = scan.scan_partitions.empty()
                                        ? std::vector<std::string>{scan.table}
                                        : scan.scan_partitions;

  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  // Global group table: group value -> slot.
  std::unordered_map<Value, size_t, ValueHash> group_slots;
  std::vector<Value> group_values;
  std::vector<std::vector<GroupAccum>> accums;  // [group][agg]
  auto group_slot_for = [&](const Value& v) -> size_t {
    auto it = group_slots.find(v);
    if (it != group_slots.end()) return it->second;
    size_t slot = group_values.size();
    group_slots.emplace(v, slot);
    group_values.push_back(v);
    accums.emplace_back(spec.aggs.size());
    return slot;
  };
  if (!spec.has_group) {
    group_slot_for(Value::Null());  // single global group
  }

  std::string group_col_name;

  for (const auto& name : tables) {
    // Pin + demand-page exactly like the interpreted executor's ExecScan:
    // the handle survives a concurrent demotion, and a demoted partition is
    // promoted back through the tier resolver instead of failing.
    auto pinned = db_->PinTable(name);
    if (!pinned.ok() && pinned.status().IsNotFound()) {
      if (TierResolver* resolver = db_->tier_resolver()) {
        auto resolved = resolver->ResolveMissing(name);
        if (resolved.ok()) pinned = std::move(resolved);
      }
    }
    POLY_ASSIGN_OR_RETURN(std::shared_ptr<ColumnTable> pinned_table, std::move(pinned));
    ColumnTable* table = pinned_table.get();
    // ONE unified guard for the whole kernel (DESIGN.md §12.5): a single
    // epoch pin covering stamps and the value snapshots of every column.
    // The fused loop below runs inside the guard's visibility loop, and the
    // guard bounds n to the published watermark so concurrent writers never
    // hand us a half-written row or an unpublished delta value.
    ColumnTable::ReadGuard guard(table);
    uint64_t n = guard.size();
    uint64_t kernel_wall0 = 0, kernel_cpu0 = 0;
    if (trace_) {
      kernel_wall0 = TraceWallNanos();
      kernel_cpu0 = TraceThreadCpuNanos();
    }
    uint64_t rows_kept = 0;
    if (spec.has_group) group_col_name = guard.schema().column(spec.group_col).name;

    // "Code generation" setup: decode every referenced column to a primitive
    // array once, via its dictionary (decode cost is part of the kernel).
    std::vector<std::vector<double>> col_data(spec.slots.size());
    std::vector<const double*> col_ptrs(spec.slots.size(), nullptr);
    for (const auto& [col, slot] : spec.slots) {
      const Column::Reader& c = guard.col(col);
      // Dictionary -> double lookup tables.
      std::vector<double> main_lut(c.main_dictionary().size());
      for (uint64_t i = 0; i < main_lut.size(); ++i) {
        main_lut[i] = c.main_dictionary().At(i).NumericValue();
      }
      std::vector<double> delta_lut(c.delta_dict_size());
      for (uint64_t i = 0; i < delta_lut.size(); ++i) {
        delta_lut[i] = c.DeltaDictValue(i).NumericValue();
      }
      std::vector<double>& data = col_data[slot];
      data.resize(n);
      uint64_t main_n = c.main_size();
      for (uint64_t r = 0; r < main_n; ++r) data[r] = main_lut[c.MainId(r)];
      for (uint64_t r = main_n; r < n; ++r) data[r] = delta_lut[c.DeltaId(r - main_n)];
      col_ptrs[slot] = data.data();
    }

    // Group slots per dictionary entry (computed once per distinct value,
    // not once per row — the dictionary-position trick).
    std::vector<uint32_t> main_group_lut, delta_group_lut;
    uint64_t group_main_n = 0;
    if (spec.has_group) {
      const Column::Reader& g = guard.col(spec.group_col);
      group_main_n = g.main_size();
      main_group_lut.resize(g.main_dictionary().size());
      for (uint64_t i = 0; i < main_group_lut.size(); ++i) {
        main_group_lut[i] =
            static_cast<uint32_t>(group_slot_for(g.main_dictionary().At(i)));
      }
      delta_group_lut.resize(g.delta_dict_size());
      for (uint64_t i = 0; i < delta_group_lut.size(); ++i) {
        delta_group_lut[i] =
            static_cast<uint32_t>(group_slot_for(g.DeltaDictValue(i)));
      }
    }

    const Column::Reader* group_col =
        spec.has_group ? &guard.col(spec.group_col) : nullptr;
    const double* const* cols = col_ptrs.data();

    // The fused loop ("the compiled query"), over the rows the stamp
    // snapshot's visibility loop yields.
    guard.ScanVisibleRange(view_, 0, n, [&](uint64_t r) {
      for (const RangeCheck& c : spec.checks) {
        if (!CheckPasses(c, cols[c.col_slot][r])) return;
      }
      ++rows_kept;
      size_t slot = 0;
      if (spec.has_group) {
        slot = r < group_main_n ? main_group_lut[group_col->MainId(r)]
                                : delta_group_lut[group_col->DeltaId(r - group_main_n)];
      }
      std::vector<GroupAccum>& acc = accums[slot];
      for (size_t a = 0; a < spec.aggs.size(); ++a) {
        GroupAccum& g = acc[a];
        if (spec.aggs[a].prog.empty()) {  // COUNT(*)
          ++g.count;
          continue;
        }
        double v = RunProgram(spec.aggs[a].prog, cols, r);
        ++g.count;
        g.sum += v;
        if (v < g.min) g.min = v;
        if (v > g.max) g.max = v;
      }
    });

    if (trace_) {
      OperatorSpan kernel;
      kernel.label = "FusedScan(" + name + ")";
      kernel.rows_in = n;           // versions the fused loop visited
      kernel.rows_out = rows_kept;  // rows surviving visibility + predicate
      kernel.bytes_out = rows_kept * spec.slots.size() * 8;
      kernel.wall_nanos = TraceWallNanos() - kernel_wall0;
      kernel.cpu_nanos = TraceThreadCpuNanos() - kernel_cpu0;
      root.children.push_back(std::move(kernel));
    }

    if (AccessObserver* observer = db_->access_observer()) {
      AccessEvent event;
      event.partition = name;
      event.rows_scanned = n;
      event.bytes = rows_kept * spec.slots.size() * 8;
      // The fused loop always sweeps every row, but classify the access
      // the way the interpreted scan would have served it, so compiled
      // point reads keep their OLTP heat weighting.
      size_t range_col = 0;
      uint64_t lo = 0, hi = 0;
      event.point_read =
          scan.scan_predicate != nullptr &&
          TryIdRangePredicate(guard, *scan.scan_predicate, &range_col, &lo, &hi);
      // Exactly the columns the fused kernel touched: its materialized
      // slots plus the group-by column it decodes directly.
      for (const auto& [col, _] : spec.slots) {
        event.columns.push_back(guard.schema().column(col).name);
      }
      if (spec.has_group && spec.slots.find(spec.group_col) == spec.slots.end()) {
        event.columns.push_back(guard.schema().column(spec.group_col).name);
      }
      observer->OnAccess(event);
    }
  }

  // Accumulator state is the compiled path's whole footprint; one
  // query-scoped reservation enforces the budget and hands it back when
  // this function returns, success or error.
  resource::Reservation reservation(opts_.budget);
  POLY_RETURN_IF_ERROR(reservation.Grow(
      group_values.size() * (16 + spec.aggs.size() * sizeof(GroupAccum))));

  // Emit results in the interpreted executor's column order.
  ResultSet out;
  if (spec.has_group) out.column_names.push_back(group_col_name);
  for (const auto& agg : plan->aggregates) out.column_names.push_back(agg.output_name);
  for (size_t slot = 0; slot < group_values.size(); ++slot) {
    // Groups created from dictionary entries may have seen no rows at all;
    // skip them (the interpreted executor never emits empty groups).
    bool touched = false;
    for (const auto& g : accums[slot]) touched |= g.count > 0;
    if (spec.has_group && !touched) continue;
    Row row;
    if (spec.has_group) row.push_back(group_values[slot]);
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      const GroupAccum& g = accums[slot][a];
      switch (spec.aggs[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(g.count)));
          break;
        case AggFunc::kSum:
          row.push_back(g.count ? Value::Dbl(g.sum) : Value::Null());
          break;
        case AggFunc::kMin:
          row.push_back(g.count ? Value::Dbl(g.min) : Value::Null());
          break;
        case AggFunc::kMax:
          row.push_back(g.count ? Value::Dbl(g.max) : Value::Null());
          break;
        case AggFunc::kAvg:
          row.push_back(g.count ? Value::Dbl(g.sum / static_cast<double>(g.count))
                                : Value::Null());
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  if (trace_) {
    root.rows_out = out.rows.size();
    for (const OperatorSpan& c : root.children) root.rows_in += c.rows_out;
    root.bytes_out = root.rows_out * out.column_names.size() * 8;
    root.wall_nanos = TraceWallNanos() - root_wall0;
    root.cpu_nanos = TraceThreadCpuNanos() - root_cpu0;
    trace_root_ = std::make_shared<OperatorSpan>(std::move(root));
    out.trace = trace_root_;
  }
  return out;
}

}  // namespace poly
