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

/// Folds one input row into the aggregate states of its group.
void UpdateAggStates(const std::vector<AggSpec>& aggregates,
                     std::vector<AggState>* states, const Row& row) {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    AggState& st = (*states)[a];
    Value v = spec.input ? spec.input->Eval(row) : Value::Int(1);
    if (v.is_null()) continue;
    ++st.count;
    if (v.type() == DataType::kInt64) {
      st.sum_int += v.AsInt();
    } else {
      st.all_int = false;
    }
    st.sum += v.NumericValue();
    if (!st.has_value || v < st.min) st.min = v;
    if (!st.has_value || st.max < v) st.max = v;
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

/// Hash-join build table: key -> right-row indices in ascending order, so
/// probe output enumerates matches deterministically (serial build appends
/// in row order; parallel build merges per-morsel tables in morsel order,
/// which is the same order).
using JoinIndex = std::unordered_map<Value, std::vector<size_t>, ValueHash>;

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

void Executor::MorselMap(size_t n,
                         const std::function<void(size_t, size_t, ResultSet*)>& body,
                         ResultSet* out) {
  ThreadPool* tp = pool();
  size_t morsel = morsel_rows();
  if (tp == nullptr || n <= morsel) {
    body(0, n, out);
    return;
  }
  size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<ResultSet> frags(num_morsels);
  tp->ParallelFor(
      num_morsels,
      [&](size_t m) {
        size_t begin = m * morsel;
        body(begin, std::min(n, begin + morsel), &frags[m]);
      },
      /*grain=*/1);
  size_t total = out->rows.size();
  for (const auto& f : frags) total += f.rows.size();
  out->rows.reserve(total);
  for (auto& f : frags) out->AppendRows(std::move(f));
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

StatusOr<ResultSet> Executor::ChargeOutput(StatusOr<ResultSet> result) {
  if (opts_.budget == nullptr || !result.ok()) return result;
  POLY_RETURN_IF_ERROR(reservation_.Grow(EstimateSpanBytes(*result)));
  return result;
}

StatusOr<ResultSet> Executor::Exec(const PlanNode& node) {
  if (!opts_.trace) return ChargeOutput(Dispatch(node));
  OperatorSpan span;
  span.label = SpanLabel(node);
  OperatorSpan* parent = current_span_;
  current_span_ = &span;  // children hang themselves under this span
  uint64_t scanned_before = stats_.rows_scanned;
  uint64_t wall0 = TraceWallNanos();
  uint64_t cpu0 = TraceThreadCpuNanos();
  StatusOr<ResultSet> result = ChargeOutput(Dispatch(node));
  span.wall_nanos = TraceWallNanos() - wall0;
  span.cpu_nanos = TraceThreadCpuNanos() - cpu0;
  current_span_ = parent;
  if (result.ok()) {
    span.rows_out = result->num_rows();
    span.bytes_out = EstimateSpanBytes(*result);
    if (node.kind == PlanKind::kScan) {
      // A scan consumes row versions, not operator rows; parallel morsel
      // stats merge into stats_ before ScanOneTable returns, so the delta
      // is exact at every thread count.
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
  return result;
}

StatusOr<ResultSet> Executor::Dispatch(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan: return ExecScan(node);
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

void Executor::ScanMorsel(const ColumnTable::ReadGuard& guard, const ScanSpec& spec,
                          uint64_t begin, uint64_t end, ResultSet* out,
                          ExecStats* stats) const {
  uint64_t main_size = guard.num_columns() ? guard.col(0).main_size() : 0;
  // One probe row per morsel, in table-column space: a row that needs the
  // predicate loads only the predicate's columns into it.
  Row probe(spec.predicate ? guard.num_columns() : 0);
  guard.ScanVisibleRange(view_, begin, end, [&](uint64_t r) {
    ++stats->rows_scanned;
    if (spec.use_range && r < main_size) {
      uint64_t id = guard.col(spec.range_col).MainId(r);
      if (id < spec.lo || id >= spec.hi) return;
    } else if (spec.predicate) {
      for (size_t c : spec.pred_cols) probe[c] = guard.GetValue(r, c);
      if (!spec.predicate->EvalBool(probe)) return;
    }
    Row row;
    row.reserve(spec.emit.size());
    for (size_t c : spec.emit) row.push_back(guard.GetValue(r, c));
    ++stats->rows_materialized;
    out->rows.push_back(std::move(row));
  });
}

Status Executor::ScanOneTable(const ColumnTable& table, const ExprPtr& predicate,
                              const std::vector<size_t>& emit, ResultSet* out) {
  ++stats_.partitions_scanned;

  // ONE unified guard per table scan (DESIGN.md §12.5): a single epoch pin
  // covering the table state, the stamp snapshot, and a value snapshot of
  // every column. Its size() is the version store's published watermark:
  // every morsel below it reads fully-published rows AND fully-published
  // values, latch-free against concurrent writers, AddColumn, Merge, and
  // Vacuum. The guard is immutable, so all morsel workers share it.
  ColumnTable::ReadGuard guard(&table);

  ScanSpec spec;
  spec.emit = emit;
  if (predicate) {
    spec.predicate = predicate.get();
    std::set<size_t> cols;
    predicate->CollectColumns(&cols);
    for (size_t c : cols) {
      if (c < guard.num_columns()) spec.pred_cols.push_back(c);  // else NULL
    }
    spec.use_range = TryIdRangePredicate(guard, *predicate, &spec.range_col, &spec.lo,
                                         &spec.hi);
  }
  if (spec.use_range) ++stats_.id_range_scans;

  uint64_t n = guard.size();
  ThreadPool* tp = pool();
  uint64_t morsel = morsel_rows();
  if (tp == nullptr || n <= morsel) {
    ScanMorsel(guard, spec, 0, n, out, &stats_);
    return Status::OK();
  }

  // Morsel-driven scan: fixed-size row ranges over the pool, per-worker
  // fragments and stats merged in morsel order — identical output to the
  // serial scan above.
  size_t num_morsels = static_cast<size_t>((n + morsel - 1) / morsel);
  std::vector<ResultSet> frags(num_morsels);
  std::vector<ExecStats> local(num_morsels);
  tp->ParallelFor(
      num_morsels,
      [&](size_t m) {
        uint64_t begin = m * morsel;
        ScanMorsel(guard, spec, begin, std::min<uint64_t>(n, begin + morsel), &frags[m],
                   &local[m]);
      },
      /*grain=*/1);
  size_t total = out->rows.size();
  for (const auto& f : frags) total += f.rows.size();
  out->rows.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    stats_.rows_scanned += local[m].rows_scanned;
    stats_.rows_materialized += local[m].rows_materialized;
    out->AppendRows(std::move(frags[m]));
  }
  return Status::OK();
}

StatusOr<ResultSet> Executor::ExecScan(const PlanNode& node) {
  // Per-temperature scan accounting (DESIGN.md §10): hot base tables vs
  // "$aged" partitions. Looked up once, bumped once per partition scan —
  // never per row.
  static metrics::Counter* const hot_scans =
      metrics::Default().counter("storage.scan.hot.count");
  static metrics::Counter* const hot_rows =
      metrics::Default().counter("storage.scan.hot.rows");
  static metrics::Counter* const hot_bytes =
      metrics::Default().counter("storage.scan.hot.bytes");
  static metrics::Counter* const aged_scans =
      metrics::Default().counter("storage.scan.aged.count");
  static metrics::Counter* const aged_rows =
      metrics::Default().counter("storage.scan.aged.rows");
  static metrics::Counter* const aged_bytes =
      metrics::Default().counter("storage.scan.aged.bytes");

  ResultSet out;
  // Partition list from the optimizer (aging-aware pruning, E12); falls back
  // to the single named table.
  std::vector<std::string> tables =
      node.scan_partitions.empty() ? std::vector<std::string>{node.table}
                                   : node.scan_partitions;
  bool first = true;
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
    POLY_ASSIGN_OR_RETURN(std::shared_ptr<ColumnTable> table, std::move(pinned));
    const Schema& schema = table->schema();
    // The pruned column list from the optimizer, else the whole row.
    std::vector<size_t> emit;
    if (node.scan_columns) {
      emit = *node.scan_columns;
      for (size_t c : emit) {
        if (c >= schema.num_columns()) {
          return Status::InvalidArgument("scan column out of range for " + name);
        }
      }
    } else {
      for (size_t c = 0; c < schema.num_columns(); ++c) emit.push_back(c);
    }
    if (first) {
      out.column_names = ScanOutputColumns(node, schema);
      first = false;
    }
    uint64_t scanned_before = stats_.rows_scanned;
    uint64_t ranges_before = stats_.id_range_scans;
    size_t rows_before = out.rows.size();
    POLY_RETURN_IF_ERROR(ScanOneTable(*table, node.scan_predicate, emit, &out));
    bool aged = name.size() > 5 && name.compare(name.size() - 5, 5, "$aged") == 0;
    (aged ? aged_scans : hot_scans)->Add(1);
    (aged ? aged_rows : hot_rows)->Add(stats_.rows_scanned - scanned_before);
    uint64_t produced = out.rows.size() - rows_before;
    uint64_t bytes = produced * emit.size() * 8;
    (aged ? aged_bytes : hot_bytes)->Add(bytes);
    if (opts_.track_access) {
      if (AccessObserver* observer = db_->access_observer()) {
        AccessEvent event;
        event.partition = name;
        event.rows_scanned = stats_.rows_scanned - scanned_before;
        event.bytes = bytes;
        event.point_read = stats_.id_range_scans > ranges_before;
        // Per-column heat names exactly the columns this scan read: the
        // emitted ones plus the predicate's.
        std::set<size_t> read(emit.begin(), emit.end());
        if (node.scan_predicate) node.scan_predicate->CollectColumns(&read);
        for (size_t c : read) {
          if (c < schema.num_columns()) event.columns.push_back(schema.column(c).name);
        }
        observer->OnAccess(event);
      }
    }
  }
  return out;
}

StatusOr<ResultSet> Executor::ExecFilter(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  ResultSet out;
  out.column_names = in.column_names;
  MorselMap(
      in.rows.size(),
      [&](size_t begin, size_t end, ResultSet* frag) {
        for (size_t i = begin; i < end; ++i) {
          if (node.predicate->EvalBool(in.rows[i])) {
            frag->rows.push_back(std::move(in.rows[i]));
          }
        }
      },
      &out);
  return out;
}

StatusOr<ResultSet> Executor::ExecProject(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  ResultSet out;
  out.column_names = node.output_names;
  MorselMap(
      in.rows.size(),
      [&](size_t begin, size_t end, ResultSet* frag) {
        frag->rows.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          Row projected;
          projected.reserve(node.projections.size());
          for (const auto& e : node.projections) {
            projected.push_back(e->Eval(in.rows[i]));
          }
          frag->rows.push_back(std::move(projected));
        }
      },
      &out);
  return out;
}

StatusOr<ResultSet> Executor::ExecHashJoin(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet left, Exec(*node.children[0]));
  POLY_ASSIGN_OR_RETURN(ResultSet right, Exec(*node.children[1]));
  if (node.left_key >= left.num_columns() || node.right_key >= right.num_columns()) {
    return Status::InvalidArgument("join key out of range");
  }
  ResultSet out;
  out.column_names = left.column_names;
  out.column_names.insert(out.column_names.end(), right.column_names.begin(),
                          right.column_names.end());

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

  // Probe side: morsels of left rows, fragments merged in left-row order.
  MorselMap(
      left.rows.size(),
      [&](size_t begin, size_t end, ResultSet* frag) {
        for (size_t i = begin; i < end; ++i) {
          const Row& lrow = left.rows[i];
          const Value& key = lrow[node.left_key];
          if (key.is_null()) continue;
          auto it = build.find(key);
          if (it == build.end()) continue;
          for (size_t ri : it->second) {
            Row joined = lrow;
            const Row& rrow = right.rows[ri];
            joined.insert(joined.end(), rrow.begin(), rrow.end());
            frag->rows.push_back(std::move(joined));
          }
        }
      },
      &out);
  return out;
}

StatusOr<ResultSet> Executor::ExecAggregate(const PlanNode& node) {
  POLY_ASSIGN_OR_RETURN(ResultSet in, Exec(*node.children[0]));
  ResultSet out;
  for (size_t g : node.group_by) {
    if (g >= in.num_columns()) return Status::InvalidArgument("group key out of range");
    out.column_names.push_back(in.column_names[g]);
  }
  for (const auto& agg : node.aggregates) out.column_names.push_back(agg.output_name);

  size_t num_aggs = node.aggregates.size();
  auto accumulate_range = [&](size_t begin, size_t end, GroupTable* table) {
    Row key;
    for (size_t i = begin; i < end; ++i) {
      const Row& row = in.rows[i];
      key.clear();
      key.reserve(node.group_by.size());
      for (size_t g : node.group_by) key.push_back(row[g]);
      UpdateAggStates(node.aggregates, table->FindOrAdd(key, num_aggs), row);
    }
  };

  GroupTable groups;
  ThreadPool* tp = pool();
  size_t morsel = morsel_rows();
  size_t n = in.rows.size();
  if (tp == nullptr || n <= morsel) {
    accumulate_range(0, n, &groups);
  } else {
    // Thread-local tables per morsel, merged in morsel order so that group
    // emission order (first occurrence over the input) and every aggregate
    // match the serial fold; FP sums follow the morsel reduction tree.
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
  }

  // Global aggregate over empty input still yields one row of zeros/nulls.
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
