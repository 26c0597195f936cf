#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "resource/governor.h"

namespace poly {

namespace {

/// Sampled result-size estimate for spans: first-row bytes × row count.
/// O(columns), not O(rows) — tracing must stay off the per-row path.
uint64_t EstimateSpanBytes(const ResultSet& rs) {
  if (rs.rows.empty()) return 0;
  uint64_t row_bytes = 0;
  for (const Value& v : rs.rows.front()) {
    switch (v.type()) {
      case DataType::kString:
      case DataType::kDocument:
        row_bytes += v.AsString().size() + 4;
        break;
      case DataType::kNull:
        row_bytes += 1;
        break;
      default:
        row_bytes += 8;
    }
  }
  return row_bytes * rs.rows.size();
}

/// Display label of a plan node for its span.
std::string SpanLabel(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan: {
      std::string label = "Scan(" + node.table;
      if (node.scan_partitions.size() > 1) {
        label += ", " + std::to_string(node.scan_partitions.size()) + " partitions";
      }
      if (node.scan_predicate) label += ", pushed predicate";
      return label + ")";
    }
    case PlanKind::kRows: return "Rows(" + node.table + ")";
    case PlanKind::kFilter: return "Filter";
    case PlanKind::kProject: return "Project";
    case PlanKind::kHashJoin: return "HashJoin";
    case PlanKind::kAggregate:
      return node.group_by.empty() ? "Aggregate" : "GroupAggregate";
    case PlanKind::kSort: return "Sort";
    case PlanKind::kLimit: return "Limit(" + std::to_string(node.limit) + ")";
    case PlanKind::kExchange:
      switch (node.exchange_mode) {
        case ExchangeMode::kGather: return "Exchange(gather)";
        case ExchangeMode::kBroadcast: return "Exchange(broadcast)";
        case ExchangeMode::kRepartition: return "Exchange(repartition)";
      }
      return "Exchange";
    case PlanKind::kPartialAggregate: return "PartialAggregate";
    case PlanKind::kFinalAggregate: return "FinalAggregate";
  }
  return "Unknown";
}

/// Splits [0, n) into morsels of `morsel` rows, runs body(begin, end, &frag)
/// across `tp`, and appends the fragments to `out` in morsel order. Serial
/// inputs (no pool, or one morsel) run as a single call straight into
/// `out`, so the result never depends on the thread count.
template <typename T, typename Body>
void MorselConcat(ThreadPool* tp, size_t morsel, size_t n, const Body& body,
                  std::vector<T>* out) {
  if (tp == nullptr || n <= morsel) {
    body(size_t{0}, n, out);
    return;
  }
  size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<std::vector<T>> frags(num_morsels);
  tp->ParallelFor(
      num_morsels,
      [&](size_t m) {
        size_t begin = m * morsel;
        body(begin, std::min(n, begin + morsel), &frags[m]);
      },
      /*grain=*/1);
  size_t total = out->size();
  for (const auto& f : frags) total += f.size();
  out->reserve(total);
  for (auto& f : frags) {
    if (out->empty()) {
      *out = std::move(f);
    } else {
      out->insert(out->end(), std::make_move_iterator(f.begin()),
                  std::make_move_iterator(f.end()));
    }
  }
}

/// Hash of a group key / join key.
struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 1469598103934665603ULL;
    for (const auto& v : key) h = (h ^ v.Hash()) * 1099511628211ULL;
    return h;
  }
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct AggState {
  uint64_t count = 0;
  double sum = 0;
  int64_t sum_int = 0;
  bool all_int = true;
  bool has_value = false;
  Value min, max;
};

/// Folds one input row into the aggregate states of its group, updating
/// only the fields its function reads: count (COUNT, AVG), sums (SUM, AVG),
/// min or max. A column input is read in place, not copied.
void UpdateAggStates(const std::vector<AggSpec>& aggregates,
                     std::vector<AggState>* states, const Row& row) {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    AggState& st = (*states)[a];
    Value computed = spec.input ? Value::Null() : Value::Int(1);
    const Value* v = &computed;
    if (spec.input && spec.input->kind() == ExprKind::kColumn) {
      if (spec.input->column_index() < row.size()) v = &row[spec.input->column_index()];
    } else if (spec.input) {
      computed = spec.input->Eval(row);
    }
    if (v->is_null()) continue;
    ++st.count;
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v->type() == DataType::kInt64) {
          st.sum_int += v->AsInt();
        } else {
          st.all_int = false;
        }
        st.sum += v->NumericValue();
        break;
      case AggFunc::kMin:
        if (!st.has_value || *v < st.min) st.min = *v;
        break;
      case AggFunc::kMax:
        if (!st.has_value || st.max < *v) st.max = *v;
        break;
    }
    st.has_value = true;
  }
}

/// Merges a worker-local partial state into `dst` (the final-merge step of
/// the parallel aggregate).
void MergeAggState(AggState* dst, const AggState& src) {
  dst->count += src.count;
  dst->sum += src.sum;
  dst->sum_int += src.sum_int;
  dst->all_int = dst->all_int && src.all_int;
  if (src.has_value) {
    if (!dst->has_value || src.min < dst->min) dst->min = src.min;
    if (!dst->has_value || dst->max < src.max) dst->max = src.max;
    dst->has_value = true;
  }
}

/// Hash-aggregation table that remembers first-occurrence order of its
/// group keys. Both the serial path and the per-morsel thread-local tables
/// use it, and the final merge walks local tables in morsel order, so group
/// emission order is the first-occurrence order over the input no matter
/// how many threads ran.
struct GroupTable {
  std::unordered_map<Row, size_t, RowKeyHash> index;
  std::vector<Row> keys;
  std::vector<std::vector<AggState>> states;

  std::vector<AggState>* FindOrAdd(const Row& key, size_t num_aggs) {
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, keys.size()).first;
      keys.push_back(key);
      states.emplace_back(num_aggs);
    }
    return &states[it->second];
  }
};

/// Folds input rows [0, n) of an aggregate into one GroupTable.
/// `for_rows(begin, end, fn)` calls fn(row) for input rows [begin, end) in
/// input order; `row` needs only the group-key and aggregate-input columns.
/// Thread-local tables per morsel are merged in morsel order, so group
/// emission order (first occurrence over the input) and every aggregate
/// match the serial fold; FP sums follow the morsel reduction tree.
template <typename ForRows>
GroupTable FoldGroups(ThreadPool* tp, size_t morsel, size_t n, const PlanNode& node,
                      const ForRows& for_rows) {
  size_t num_aggs = node.aggregates.size();
  auto accumulate_range = [&](size_t begin, size_t end, GroupTable* table) {
    Row key;
    key.reserve(node.group_by.size());
    for_rows(begin, end, [&](const Row& row) {
      key.clear();
      for (size_t g : node.group_by) key.push_back(row[g]);
      UpdateAggStates(node.aggregates, table->FindOrAdd(key, num_aggs), row);
    });
  };
  GroupTable groups;
  if (tp == nullptr || n <= morsel) {
    accumulate_range(0, n, &groups);
    return groups;
  }
  size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<GroupTable> locals(num_morsels);
  tp->ParallelFor(
      num_morsels,
      [&](size_t m) {
        size_t begin = m * morsel;
        accumulate_range(begin, std::min(n, begin + morsel), &locals[m]);
      },
      /*grain=*/1);
  for (auto& local : locals) {
    for (size_t g = 0; g < local.keys.size(); ++g) {
      std::vector<AggState>* dst = groups.FindOrAdd(local.keys[g], num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        MergeAggState(&(*dst)[a], local.states[g][a]);
      }
    }
  }
  return groups;
}

/// The aggregate's input columns its group keys and aggregate inputs read:
/// all a fold loads per input row.
std::vector<size_t> AggregateInputColumns(const PlanNode& node) {
  std::set<size_t> cols(node.group_by.begin(), node.group_by.end());
  for (const AggSpec& agg : node.aggregates) {
    if (agg.input) agg.input->CollectColumns(&cols);
  }
  return std::vector<size_t>(cols.begin(), cols.end());
}

/// Hash-join build table: key -> right-row indices in ascending order, so
/// probe output enumerates matches deterministically (serial build appends
/// in row order; parallel build merges per-morsel tables in morsel order,
/// which is the same order).
using JoinIndex = std::unordered_map<Value, std::vector<size_t>, ValueHash>;

/// The top-level conjuncts of `e` (e itself when it is not an AND).
void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kAnd) {
    FlattenAnd(e->left(), out);
    FlattenAnd(e->right(), out);
  } else {
    out->push_back(e);
  }
}

/// Indices in `cols` below `width` (a column past the table reads NULL).
std::vector<size_t> ColumnsBelow(const std::set<size_t>& cols, size_t width) {
  std::vector<size_t> out;
  for (size_t c : cols) {
    if (c < width) out.push_back(c);
  }
  return out;
}

/// A value-id range test on one main-store column, from the conjuncts of
/// a pushed predicate on that column; rows at or past `main_size` test
/// values instead.
struct IdRange {
  const Column::Reader* column = nullptr;
  uint64_t main_size = 0;  ///< this column's own: a merge republishes
                           ///< columns one at a time
  uint64_t lo = 0, hi = 0;
};

/// What one table scan evaluates, shared by all its morsels.
struct ScanSpec {
  const Expr* predicate = nullptr;  ///< null = every visible row passes
  std::vector<size_t> pred_cols;    ///< columns the predicate reads
  std::vector<IdRange> ranges;      ///< one per column with id-range conjuncts
  ExprPtr residual;                 ///< the other conjuncts; null = none
  std::vector<size_t> residual_cols;
  bool one_atom = false;  ///< the whole predicate is one id-range atom
};

/// Splits `predicate` for a scan through `guard`: every `col op literal`
/// conjunct becomes a value-id range, ranges on one column intersect, and
/// the other conjuncts form the residual.
ScanSpec MakeScanSpec(const ColumnTable::ReadGuard& guard, const ExprPtr& predicate) {
  ScanSpec spec;
  if (!predicate) return spec;
  spec.predicate = predicate.get();
  std::set<size_t> cols;
  predicate->CollectColumns(&cols);
  spec.pred_cols = ColumnsBelow(cols, guard.num_columns());
  std::vector<ExprPtr> conjuncts;
  FlattenAnd(predicate, &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    size_t col = 0;
    uint64_t lo = 0, hi = 0;
    if (!TryIdRangePredicate(guard, *conjunct, &col, &lo, &hi)) {
      spec.residual = spec.residual ? Expr::And(spec.residual, conjunct) : conjunct;
      continue;
    }
    const Column::Reader* column = &guard.col(col);
    auto it = std::find_if(spec.ranges.begin(), spec.ranges.end(),
                           [&](const IdRange& r) { return r.column == column; });
    if (it == spec.ranges.end()) {
      spec.ranges.push_back({column, column->main_size(), lo, hi});
    } else {
      it->lo = std::max(it->lo, lo);
      it->hi = std::min(it->hi, hi);
    }
  }
  if (spec.residual) {
    cols.clear();
    spec.residual->CollectColumns(&cols);
    spec.residual_cols = ColumnsBelow(cols, guard.num_columns());
  }
  spec.one_atom = conjuncts.size() == 1 && !spec.ranges.empty();
  return spec;
}

/// Selects the rows of [begin, end) visible in `view` that pass `spec`
/// into `out`, counting into `stats` (which may be a worker-local partial).
/// One morsel of a scan. The guard is immutable and shared by every morsel
/// of one table scan: one pin covers stamps and values for the whole
/// fan-out (DESIGN.md §12.5).
void ScanMorsel(const ColumnTable::ReadGuard& guard, const ReadView& view,
                const ScanSpec& spec, uint64_t begin, uint64_t end,
                std::vector<uint64_t>* out, ExecStats* stats) {
  // One probe row per morsel, in table-column space: a row that needs a
  // predicate on values loads only that predicate's columns into it.
  Row probe(spec.predicate ? guard.num_columns() : 0);
  auto passes = [&](const Expr& pred, const std::vector<size_t>& cols, uint64_t r) {
    for (size_t c : cols) probe[c] = guard.GetValue(r, c);
    return pred.EvalBool(probe);
  };
  guard.ScanVisibleRange(view, begin, end, [&](uint64_t r) {
    ++stats->rows_scanned;
    // Id-range conjuncts test main rows on value ids; a row past some
    // range column's main part evaluates the whole predicate on values.
    bool ids_only = true;
    for (const IdRange& range : spec.ranges) {
      if (r >= range.main_size) {
        ids_only = false;
        continue;
      }
      uint64_t id = range.column->MainId(r);
      if (id < range.lo || id >= range.hi) return;
    }
    if (!ids_only) {
      if (!passes(*spec.predicate, spec.pred_cols, r)) return;
    } else if (spec.residual && !passes(*spec.residual, spec.residual_cols, r)) {
      return;
    }
    ++stats->rows_materialized;
    out->push_back(r);
  });
}

}  // namespace

// Declared in executor.h; shared with the compiled path's access
// classification.
bool TryIdRangePredicate(const ColumnTable& table, const Expr& pred, size_t* col_out,
                         uint64_t* lo_out, uint64_t* hi_out) {
  ColumnTable::ReadGuard guard(&table);
  return TryIdRangePredicate(guard, pred, col_out, lo_out, hi_out);
}

bool TryIdRangePredicate(const ColumnTable::ReadGuard& guard, const Expr& pred,
                         size_t* col_out, uint64_t* lo_out, uint64_t* hi_out) {
  if (pred.kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = pred.left();
  const ExprPtr& r = pred.right();
  if (!l || !r) return false;
  if (l->kind() != ExprKind::kColumn || r->kind() != ExprKind::kLiteral) return false;
  if (pred.cmp_op() == CmpOp::kNe) return false;
  size_t col = l->column_index();
  if (col >= guard.num_columns()) return false;
  const SortedDictionary& dict = guard.col(col).main_dictionary();
  const Value& v = r->literal();
  uint64_t lo = 0, hi = dict.size();
  switch (pred.cmp_op()) {
    case CmpOp::kEq:
      lo = dict.LowerBound(v);
      hi = dict.UpperBound(v);
      break;
    case CmpOp::kLt:
      hi = dict.LowerBound(v);
      break;
    case CmpOp::kLe:
      hi = dict.UpperBound(v);
      break;
    case CmpOp::kGt:
      lo = dict.UpperBound(v);
      break;
    case CmpOp::kGe:
      lo = dict.LowerBound(v);
      break;
    case CmpOp::kNe:
      return false;
  }
  // NULL sorts first in the dictionary but satisfies no comparison: every
  // range starts after it, and a NULL literal matches nothing.
  if (dict.size() > 0 && dict.At(0).is_null()) lo = std::max<uint64_t>(lo, 1);
  if (v.is_null()) lo = hi = 0;
  *col_out = col;
  *lo_out = lo;
  *hi_out = hi;
  return true;
}

Executor::Executor(const Database* db, ReadView view)
    : Executor(db, view, db->exec_options()) {
  if (!opts_.pool) opts_.pool = db->exec_pool();
}

Executor::Executor(const Database* db, ReadView view, const ExecOptions& opts)
    : db_(db), view_(view), opts_(opts) {}

Executor::~Executor() = default;

ThreadPool* Executor::pool() {
  if (opts_.num_threads <= 1) return nullptr;
  if (opts_.pool) return opts_.pool;
  if (!owned_pool_) {
    owned_pool_ = std::make_unique<ThreadPool>(opts_.num_threads - 1);
  }
  return owned_pool_.get();
}

const Executor::ScanCounters& Executor::scan_counters(bool aged) {
  ScanCounters& c = aged ? aged_counters_ : hot_counters_;
  if (c.count == nullptr) {
    metrics::Registry* reg = db_->metrics();
    std::string prefix = aged ? "storage.scan.aged." : "storage.scan.hot.";
    c.count = reg->counter(prefix + "count");
    c.rows = reg->counter(prefix + "rows");
    c.bytes = reg->counter(prefix + "bytes");
  }
  return c;
}

StatusOr<ResultSet> Executor::Execute(const PlanPtr& plan) {
  if (!plan) return Status::InvalidArgument("null plan");
  // Ad-hoc admission (DESIGN.md §13.2): a directly constructed Executor on
  // a governed database mints its own ticket in the caller's workload class
  // instead of bypassing admission. Callers already holding a per-query
  // budget (Database::Execute threads the ticket's node in) pass through.
  resource::AdmissionTicket ticket;
  resource::BudgetNode* entry_budget = opts_.budget;
  if (entry_budget == nullptr && db_->resource_governor() != nullptr) {
    auto admitted = db_->resource_governor()->AdmitQuery(opts_.workload_class);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(*admitted);
    opts_.budget = ticket.budget();
  }
  trace_root_.reset();
  current_span_ = nullptr;
  reservation_ = resource::Reservation(opts_.budget);
  StatusOr<ResultSet> result = Exec(*plan);
  // Charges cover execution, not the returned rows' afterlife: release
  // everything here so the budget balances to zero on success and error
  // alike (the balance oracle in resource_test.cpp checks exactly this).
  reservation_.ReleaseAll();
  // The ticket (and its per-query budget node) dies with this call.
  opts_.budget = entry_budget;
  if (result.ok() && trace_root_) result->trace = trace_root_;
  return result;
}

Status Executor::RunOperator(const PlanNode& node,
                             const std::function<StatusOr<Produced>()>& body) {
  auto run = [&]() -> StatusOr<Produced> {
    POLY_ASSIGN_OR_RETURN(Produced produced, body());
    if (opts_.budget != nullptr) POLY_RETURN_IF_ERROR(reservation_.Grow(produced.bytes));
    return produced;
  };
  if (!opts_.trace) return run().status();
  OperatorSpan span;
  span.label = SpanLabel(node);
  OperatorSpan* parent = current_span_;
  current_span_ = &span;  // children hang themselves under this span
  uint64_t scanned_before = stats_.rows_scanned;
  uint64_t wall0 = TraceWallNanos();
  uint64_t cpu0 = TraceThreadCpuNanos();
  StatusOr<Produced> produced = run();
  span.wall_nanos = TraceWallNanos() - wall0;
  span.cpu_nanos = TraceThreadCpuNanos() - cpu0;
  current_span_ = parent;
  if (produced.ok()) {
    span.rows_out = produced->rows;
    span.bytes_out = produced->bytes;
    if (node.kind == PlanKind::kScan) {
      // A scan consumes row versions, not operator rows; parallel morsel
      // stats merge into stats_ before SelectScan returns, so the delta is
      // exact at every thread count.
      span.rows_in = stats_.rows_scanned - scanned_before;
    } else {
      for (const OperatorSpan& c : span.children) span.rows_in += c.rows_out;
    }
  }
  if (parent != nullptr) {
    parent->children.push_back(std::move(span));
  } else {
    trace_root_ = std::make_shared<OperatorSpan>(std::move(span));
  }
  return produced.status();
}

StatusOr<ResultSet> Executor::Exec(const PlanNode& node) {
  ResultSet out;
  POLY_RETURN_IF_ERROR(RunOperator(node, [&]() -> StatusOr<Produced> {
    POLY_ASSIGN_OR_RETURN(out, Dispatch(node));
    return Produced{out.num_rows(), EstimateSpanBytes(out)};
  }));
  return out;
}

StatusOr<ResultSet> Executor::Dispatch(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan: return ExecScan(node);
    case PlanKind::kRows:
      if (node.rows == nullptr) return Status::InvalidArgument("unbound row input " + node.table);
      return *node.rows;
    case PlanKind::kFilter: return ExecFilter(node);
    case PlanKind::kProject: return ExecProject(node);
    case PlanKind::kHashJoin: return ExecHashJoin(node);
    case PlanKind::kAggregate: return ExecAggregate(node);
    case PlanKind::kSort: return ExecSort(node);
    case PlanKind::kLimit: return ExecLimit(node);
    case PlanKind::kExchange: return ExecExchange(node);
    case PlanKind::kPartialAggregate: return ExecPartialAggregate(node);
    case PlanKind::kFinalAggregate: return ExecFinalAggregate(node);
  }
  return Status::Internal("unknown plan node");
}

template <typename F>
void Executor::ScanSelection::ForRange(size_t begin, size_t end, F&& fn) const {
  // First part holding position `begin`: parts are few (one per scanned
  // partition), so a linear walk is cheaper than a search.
  size_t p = 0;
  while (p + 1 < parts.size() && parts[p + 1].begin <= begin) ++p;
  for (; p < parts.size() && begin < end; ++p) {
    const Part& part = parts[p];
    size_t stop = std::min(end, part.begin + part.rows.size());
    for (size_t i = begin; i < stop; ++i) fn(part, part.rows[i - part.begin]);
    begin = stop;
  }
}

Status Executor::SelectScan(const PlanNode& node, ScanSelection* out) {
  // Partition list from the optimizer (aging-aware pruning, E12); falls back
  // to the single named table.
  std::vector<std::string> tables =
      node.scan_partitions.empty() ? std::vector<std::string>{node.table}
                                   : node.scan_partitions;
  for (const auto& name : tables) {
    // Pin the partition: a shared handle keeps it alive across the scan even
    // if the tiering daemon demotes (drops) it concurrently.
    auto pinned = db_->PinTable(name);
    if (!pinned.ok() && pinned.status().IsNotFound()) {
      // Demand paging: offer the miss to the tier resolver (the tiering
      // daemon promotes demoted partitions back from warm storage and hands
      // back an already-pinned reference). Without a resolver, demoted
      // partitions keep failing loudly as before.
      if (TierResolver* resolver = db_->tier_resolver()) {
        auto resolved = resolver->ResolveMissing(name);
        if (resolved.ok()) pinned = std::move(resolved);
      }
    }
    ScanSelection::Part part;
    POLY_ASSIGN_OR_RETURN(part.table, std::move(pinned));
    const Schema& schema = part.table->schema();
    // The pruned column list from the optimizer, else the whole row.
    if (node.scan_columns) {
      part.emit = *node.scan_columns;
      for (size_t c : part.emit) {
        if (c >= schema.num_columns()) {
          return Status::InvalidArgument("scan column out of range for " + name);
        }
      }
    } else {
      for (size_t c = 0; c < schema.num_columns(); ++c) part.emit.push_back(c);
    }
    if (out->parts.empty()) out->column_names = ScanOutputColumns(node, schema);
    part.begin = out->size();

    // ONE unified guard per table scan (DESIGN.md §12.5): a single epoch pin
    // covering the table state, the stamp snapshot, and a value snapshot of
    // every column. Its size() is the version store's published watermark:
    // every morsel below it reads fully-published rows AND fully-published
    // values, latch-free against concurrent writers, AddColumn, Merge, and
    // Vacuum. The guard is immutable, so all morsel workers share it, and
    // it stays pinned until the selection is consumed.
    part.guard = std::make_unique<ColumnTable::ReadGuard>(part.table.get());
    const ColumnTable::ReadGuard& guard = *part.guard;
    ++stats_.partitions_scanned;
    uint64_t scanned_before = stats_.rows_scanned;
    ScanSpec spec = MakeScanSpec(guard, node.scan_predicate);
    // The point-read signal keeps its meaning: the whole predicate is one
    // id-range atom.
    if (spec.one_atom) ++stats_.id_range_scans;

    // Morsel-driven selection: fixed-size row ranges over the pool,
    // per-worker selections and stats merged in morsel order — identical
    // to the serial scan.
    uint64_t n = guard.size();
    ThreadPool* tp = pool();
    if (tp == nullptr || n <= morsel_rows()) {
      ScanMorsel(guard, view_, spec, 0, n, &part.rows, &stats_);
    } else {
      std::vector<ExecStats> local((n + morsel_rows() - 1) / morsel_rows());
      MorselConcat(
          tp, morsel_rows(), n,
          [&](size_t begin, size_t end, std::vector<uint64_t>* rows) {
            ScanMorsel(guard, view_, spec, begin, end, rows, &local[begin / morsel_rows()]);
          },
          &part.rows);
      for (const ExecStats& s : local) {
        stats_.rows_scanned += s.rows_scanned;
        stats_.rows_materialized += s.rows_materialized;
      }
    }

    // Per-temperature scan accounting (DESIGN.md §10): hot base tables vs
    // "$aged" partitions, bumped once per partition scan — never per row.
    bool aged = name.size() > 5 && name.compare(name.size() - 5, 5, "$aged") == 0;
    const ScanCounters& counters = scan_counters(aged);
    uint64_t scanned = stats_.rows_scanned - scanned_before;
    uint64_t bytes = part.rows.size() * part.emit.size() * 8;
    counters.count->Add(1);
    counters.rows->Add(scanned);
    counters.bytes->Add(bytes);
    if (opts_.track_access) {
      if (AccessObserver* observer = db_->access_observer()) {
        AccessEvent event;
        event.partition = name;
        event.rows_scanned = scanned;
        event.bytes = bytes;
        event.point_read = spec.one_atom;
        // Per-column heat names exactly the columns this scan read: the
        // emitted ones plus the predicate's.
        std::set<size_t> read(part.emit.begin(), part.emit.end());
        if (node.scan_predicate) node.scan_predicate->CollectColumns(&read);
        for (size_t c : read) {
          if (c < schema.num_columns()) event.columns.push_back(schema.column(c).name);
        }
        observer->OnAccess(event);
      }
    }
    out->parts.push_back(std::move(part));
  }
  return Status::OK();
}

StatusOr<ResultSet> Executor::ExecScan(const PlanNode& node) {
  ScanSelection sel;
  POLY_RETURN_IF_ERROR(SelectScan(node, &sel));
  ResultSet out;
  out.column_names = std::move(sel.column_names);
  MorselConcat(
      pool(), morsel_rows(), sel.size(),
      [&](size_t begin, size_t end, std::vector<Row>* rows) {
        rows->reserve(rows->size() + (end - begin));
        sel.ForRange(begin, end, [&](const ScanSelection::Part& part, uint64_t r) {
          Row row;
          row.reserve(part.emit.size());
          for (size_t c : part.emit) row.push_back(part.guard->GetValue(r, c));
          rows->push_back(std::move(row));
        });
      },
      &out.rows);
  return out;
}

StatusOr<ResultSet> Executor::ExecFilter(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  ResultSet out;
  out.column_names = in.column_names;
  MorselConcat(
      pool(), morsel_rows(), in.rows.size(),
      [&](size_t begin, size_t end, std::vector<Row>* rows) {
        for (size_t i = begin; i < end; ++i) {
          if (node.predicate->EvalBool(in.rows[i])) rows->push_back(std::move(in.rows[i]));
        }
      },
      &out.rows);
  return out;
}

StatusOr<ResultSet> Executor::ExecProject(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  ResultSet out;
  out.column_names = node.output_names;
  MorselConcat(
      pool(), morsel_rows(), in.rows.size(),
      [&](size_t begin, size_t end, std::vector<Row>* rows) {
        rows->reserve(rows->size() + (end - begin));
        for (size_t i = begin; i < end; ++i) {
          Row projected;
          projected.reserve(node.projections.size());
          for (const auto& e : node.projections) {
            projected.push_back(e->Eval(in.rows[i]));
          }
          rows->push_back(std::move(projected));
        }
      },
      &out.rows);
  return out;
}

Status Executor::MatchJoin(const PlanNode& node, JoinMatches* out) {
  POLY_ASSIGN_OR_RETURN(out->left, Exec(*node.children[0]));
  POLY_ASSIGN_OR_RETURN(out->right, Exec(*node.children[1]));
  const ResultSet& left = out->left;
  const ResultSet& right = out->right;
  if (node.left_key >= left.num_columns() || node.right_key >= right.num_columns()) {
    return Status::InvalidArgument("join key out of range");
  }

  // Build side: key -> ascending right-row indices. Parallel build fills
  // per-morsel tables, merged in morsel order so index lists stay sorted.
  JoinIndex build;
  ThreadPool* tp = pool();
  size_t morsel = morsel_rows();
  size_t rn = right.rows.size();
  auto build_range = [&right, &node](size_t begin, size_t end, JoinIndex* idx) {
    for (size_t i = begin; i < end; ++i) {
      const Value& key = right.rows[i][node.right_key];
      if (key.is_null()) continue;
      (*idx)[key].push_back(i);
    }
  };
  if (tp == nullptr || rn <= morsel) {
    build.reserve(rn);
    build_range(0, rn, &build);
  } else {
    size_t num_morsels = (rn + morsel - 1) / morsel;
    std::vector<JoinIndex> locals(num_morsels);
    tp->ParallelFor(
        num_morsels,
        [&](size_t m) {
          size_t begin = m * morsel;
          build_range(begin, std::min(rn, begin + morsel), &locals[m]);
        },
        /*grain=*/1);
    build.reserve(rn);
    for (auto& local : locals) {
      for (auto& [key, idxs] : local) {
        auto& dst = build[key];
        dst.insert(dst.end(), idxs.begin(), idxs.end());
      }
    }
  }

  // Build side is internal state no span sees: charge ~3 words per entry
  // (hash slot + index vector element) before probing fans out.
  POLY_RETURN_IF_ERROR(ChargeInternal(rn * 24));

  // Probe side: morsels of left rows, matches merged in left-row order.
  MorselConcat(
      tp, morsel, left.rows.size(),
      [&](size_t begin, size_t end, std::vector<std::pair<size_t, size_t>>* pairs) {
        for (size_t i = begin; i < end; ++i) {
          const Value& key = left.rows[i][node.left_key];
          if (key.is_null()) continue;
          auto it = build.find(key);
          if (it == build.end()) continue;
          for (size_t ri : it->second) pairs->emplace_back(i, ri);
        }
      },
      &out->pairs);
  return Status::OK();
}

StatusOr<ResultSet> Executor::ExecHashJoin(const PlanNode& node) {
  JoinMatches join;
  POLY_RETURN_IF_ERROR(MatchJoin(node, &join));
  ResultSet out;
  out.column_names = join.column_names();
  MorselConcat(
      pool(), morsel_rows(), join.pairs.size(),
      [&](size_t begin, size_t end, std::vector<Row>* rows) {
        rows->reserve(rows->size() + (end - begin));
        for (size_t i = begin; i < end; ++i) {
          Row joined = join.left.rows[join.pairs[i].first];
          const Row& rrow = join.right.rows[join.pairs[i].second];
          joined.insert(joined.end(), rrow.begin(), rrow.end());
          rows->push_back(std::move(joined));
        }
      },
      &out.rows);
  return out;
}

StatusOr<ResultSet> Executor::ExecAggregate(const PlanNode& node) {
  const PlanNode& child = *node.children[0];
  ThreadPool* tp = pool();
  size_t morsel = morsel_rows();
  std::vector<size_t> read = AggregateInputColumns(node);
  auto check_keys = [&node](const std::vector<std::string>& in_names) {
    for (size_t g : node.group_by) {
      if (g >= in_names.size()) return Status::InvalidArgument("group key out of range");
    }
    return Status::OK();
  };

  // Late materialization: over a scan or a join the aggregate folds the
  // selection / match pairs, loading only the columns in `read` into one
  // probe row per morsel. Either way the fold walks its input in the same
  // morsels as over materialized rows, so the result is identical.
  std::vector<std::string> in_names;
  GroupTable groups;
  if (child.kind == PlanKind::kScan) {
    ScanSelection sel;
    POLY_RETURN_IF_ERROR(RunOperator(child, [&]() -> StatusOr<Produced> {
      POLY_RETURN_IF_ERROR(SelectScan(child, &sel));
      return Produced{sel.size(), sel.size() * sizeof(uint64_t)};
    }));
    POLY_RETURN_IF_ERROR(check_keys(sel.column_names));
    size_t width = sel.column_names.size();
    groups = FoldGroups(tp, morsel, sel.size(), node,
                        [&](size_t begin, size_t end, const auto& fn) {
                          Row probe(width);
                          sel.ForRange(begin, end, [&](const ScanSelection::Part& part,
                                                       uint64_t r) {
                            for (size_t c : read) {
                              if (c < width && c < part.emit.size()) {
                                probe[c] = part.guard->GetValue(r, part.emit[c]);
                              }
                            }
                            fn(probe);
                          });
                        });
    in_names = std::move(sel.column_names);
  } else if (child.kind == PlanKind::kHashJoin) {
    JoinMatches join;
    POLY_RETURN_IF_ERROR(RunOperator(child, [&]() -> StatusOr<Produced> {
      POLY_RETURN_IF_ERROR(MatchJoin(child, &join));
      return Produced{join.pairs.size(),
                      join.pairs.size() * sizeof(std::pair<size_t, size_t>)};
    }));
    in_names = join.column_names();
    POLY_RETURN_IF_ERROR(check_keys(in_names));
    size_t left_width = join.left.num_columns();
    size_t width = in_names.size();
    groups = FoldGroups(tp, morsel, join.pairs.size(), node,
                        [&](size_t begin, size_t end, const auto& fn) {
                          Row probe(width);
                          for (size_t i = begin; i < end; ++i) {
                            const Row& l = join.left.rows[join.pairs[i].first];
                            const Row& r = join.right.rows[join.pairs[i].second];
                            for (size_t c : read) {
                              if (c < left_width) {
                                probe[c] = l[c];
                              } else if (c < width) {
                                probe[c] = r[c - left_width];
                              }
                            }
                            fn(probe);
                          }
                        });
  } else {
    POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(child));
    POLY_RETURN_IF_ERROR(check_keys(in.column_names));
    groups = FoldGroups(tp, morsel, in.rows.size(), node,
                        [&](size_t begin, size_t end, const auto& fn) {
                          for (size_t i = begin; i < end; ++i) fn(in.rows[i]);
                        });
    in_names = std::move(in.column_names);
  }

  ResultSet out;
  for (size_t g : node.group_by) out.column_names.push_back(in_names[g]);
  for (const auto& agg : node.aggregates) out.column_names.push_back(agg.output_name);

  // Global aggregate over empty input still yields one row of zeros/nulls.
  size_t num_aggs = node.aggregates.size();
  if (node.group_by.empty() && groups.keys.empty()) {
    groups.FindOrAdd(Row{}, num_aggs);
  }

  // The merged group table (keys + AggStates) is the aggregate's build
  // side; like the join index it never appears in a span's output estimate.
  POLY_RETURN_IF_ERROR(ChargeInternal(
      groups.keys.size() * (node.group_by.size() * 16 + num_aggs * 48)));

  out.rows.reserve(groups.keys.size());
  for (size_t g = 0; g < groups.keys.size(); ++g) {
    Row row = groups.keys[g];
    const std::vector<AggState>& states = groups.states[g];
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggState& st = states[a];
      switch (node.aggregates[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(st.count)));
          break;
        case AggFunc::kSum:
          if (!st.has_value) {
            row.push_back(Value::Null());
          } else if (st.all_int) {
            row.push_back(Value::Int(st.sum_int));
          } else {
            row.push_back(Value::Dbl(st.sum));
          }
          break;
        case AggFunc::kMin:
          row.push_back(st.has_value ? st.min : Value::Null());
          break;
        case AggFunc::kMax:
          row.push_back(st.has_value ? st.max : Value::Null());
          break;
        case AggFunc::kAvg:
          row.push_back(st.count ? Value::Dbl(st.sum / static_cast<double>(st.count))
                                 : Value::Null());
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

StatusOr<ResultSet> Executor::ExecExchange(const PlanNode& node) {
  // Data movement is the cluster's job; a single-node run just forwards the
  // fragment's rows. Keeping the node executable lets one Executor run a
  // whole distributed-shaped plan for oracle tests and coordinator-side
  // residual merges.
  return Exec(*node.children[0]);
}

StatusOr<ResultSet> Executor::ExecPartialAggregate(const PlanNode& node) {
  // Same machinery as kAggregate, but emitting the mergeable slot list
  // (AVG decomposed into SUM + COUNT) instead of finalized values.
  PlanNode partial = node;
  partial.kind = PlanKind::kAggregate;
  partial.aggregates = PartialAggLayout::For(node.aggregates).partial_specs;
  return ExecAggregate(partial);
}

StatusOr<ResultSet> Executor::ExecFinalAggregate(const PlanNode& node) {
  // Input convention: [group cols 0..k-1][partial slots k..k+n-1], the
  // exact shape kPartialAggregate emits (and the shuffle stages preserve).
  PartialAggLayout layout = PartialAggLayout::For(node.aggregates);
  size_t k = node.group_by.size();

  // Merge phase: re-group by the leading key columns, folding each slot
  // with its merge function — COUNT partials merge by summing, SUM/MIN/MAX
  // by themselves.
  PlanNode merge;
  merge.kind = PlanKind::kAggregate;
  merge.children = node.children;
  for (size_t g = 0; g < k; ++g) merge.group_by.push_back(g);
  for (size_t j = 0; j < layout.num_slots(); ++j) {
    AggSpec spec = layout.partial_specs[j];
    spec.input = Expr::Column(k + j);
    if (spec.func == AggFunc::kCount) spec.func = AggFunc::kSum;
    merge.aggregates.push_back(spec);
  }
  POLY_ASSIGN_OR_RETURN(ResultSet merged, ExecAggregate(merge));

  // Finalize the user aggregates out of the merged slots.
  ResultSet out;
  for (size_t g = 0; g < k; ++g) out.column_names.push_back(merged.column_names[g]);
  for (const AggSpec& agg : node.aggregates) out.column_names.push_back(agg.output_name);
  out.rows.reserve(merged.rows.size());
  for (const Row& in : merged.rows) {
    Row row(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(k));
    for (const PartialAggLayout::Entry& entry : layout.entries) {
      const Value& v = in[k + entry.slot];
      switch (entry.func) {
        case AggFunc::kCount:
          // A group with zero counted rows merges to a null SUM; COUNT is 0.
          row.push_back(v.is_null() ? Value::Int(0) : v);
          break;
        case AggFunc::kSum:
        case AggFunc::kMin:
        case AggFunc::kMax:
          row.push_back(v);
          break;
        case AggFunc::kAvg: {
          const Value& cnt = in[k + entry.slot + 1];
          double c = cnt.is_null() ? 0.0 : cnt.NumericValue();
          row.push_back(c > 0 ? Value::Dbl(v.NumericValue() / c) : Value::Null());
          break;
        }
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

StatusOr<ResultSet> Executor::ExecSort(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  std::stable_sort(in.rows.begin(), in.rows.end(), [&](const Row& a, const Row& b) {
    for (const auto& key : node.sort_keys) {
      const Value& va = a[key.column];
      const Value& vb = b[key.column];
      if (va < vb) return key.ascending;
      if (vb < va) return !key.ascending;
    }
    return false;
  });
  return in;
}

StatusOr<ResultSet> Executor::ExecLimit(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  if (in.rows.size() > node.limit) in.rows.resize(node.limit);
  return in;
}

}  // namespace poly
