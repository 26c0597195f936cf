#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
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

/// Indices in `cols` below `width` (a column past the table reads NULL).
std::vector<size_t> ColumnsBelow(const std::set<size_t>& cols, size_t width) {
  std::vector<size_t> out;
  for (size_t c : cols) {
    if (c < width) out.push_back(c);
  }
  return out;
}

/// Folds input rows [0, n) into `out`: in one call when serial (no pool,
/// or one morsel), else into one make() table per morsel, merged into
/// `out` in morsel order by merge(local, out). So a group's first
/// occurrence over the input fixes its position at every thread count, and
/// FP sums follow the fixed morsel reduction tree.
template <typename Table, typename MakeFn, typename AccumulateFn, typename MergeFn>
void FoldMorsels(ThreadPool* tp, size_t morsel, size_t n, const MakeFn& make,
                 const AccumulateFn& accumulate, const MergeFn& merge, Table* out) {
  if (tp == nullptr || n <= morsel) {
    accumulate(size_t{0}, n, out);
    return;
  }
  size_t num_morsels = (n + morsel - 1) / morsel;
  std::vector<std::optional<Table>> locals(num_morsels);
  tp->ParallelFor(
      num_morsels,
      [&](size_t m) {
        size_t begin = m * morsel;
        locals[m].emplace(make());
        accumulate(begin, std::min(n, begin + morsel), &*locals[m]);
      },
      /*grain=*/1);
  for (const auto& local : locals) merge(*local, out);
}

/// Hash of a group key / join key.
struct RowKeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 1469598103934665603ULL;
    for (const auto& v : key) h = (h ^ v.Hash()) * 1099511628211ULL;
    return h;
  }
};

/// Value -> code map over values that stay in place (dictionary entries, a
/// join side's cells): keys are pointers, so numbering copies no Value.
struct ValuePtrHash {
  size_t operator()(const Value* v) const { return v->Hash(); }
};
struct ValuePtrEq {
  bool operator()(const Value* a, const Value* b) const { return *a == *b; }
};
using ValueCodes = std::unordered_map<const Value*, uint32_t, ValuePtrHash, ValuePtrEq>;

/// An aggregate input as a fold reads it: what COUNT, SUM, AVG, MIN and
/// MAX need of one Value, decoded once per dictionary entry of a scanned
/// column, or per row from a join side's cell or a computed value.
struct Cell {
  enum Kind : uint8_t { kNull, kInt, kNumber, kOther };
  const Value* v = nullptr;  ///< the input itself, never copied
  double num = 0;            ///< v->NumericValue()
  int64_t i = 0;             ///< v->AsInt() when kind == kInt
  Kind kind = kNull;         ///< kInt: BIGINT; kNumber: DOUBLE or TIMESTAMP

  const Value& value() const { return *v; }
  bool numeric() const { return kind == kInt || kind == kNumber; }
};

Cell MakeCell(const Value& v) {
  Cell c;
  c.v = &v;
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      c.kind = Cell::kInt;
      c.i = v.AsInt();
      c.num = static_cast<double>(c.i);
      break;
    case DataType::kDouble:
    case DataType::kTimestamp:
      c.kind = Cell::kNumber;
      c.num = v.NumericValue();
      break;
    default:
      c.kind = Cell::kOther;
      c.num = v.NumericValue();
  }
  return c;
}

/// COUNT(*)'s input: one non-null value per row.
const Cell& OneCell() {
  static const Value one = Value::Int(1);
  static const Cell cell = MakeCell(one);
  return cell;
}

/// A column input past the input's width reads NULL.
const Cell& NullCell() {
  static const Cell cell;
  return cell;
}

/// Computed MIN/MAX inputs a group table keeps: a deque, so a pointer to an
/// element stays valid as it grows.
using ValueStore = std::deque<Value>;

/// MIN or MAX so far: the input in place when it outlives the fold (a
/// column of the fold's input), else a copy in the table's ValueStore.
struct Extreme {
  const Value* v = nullptr;
  double num = 0;  ///< v->NumericValue() when is_numeric
  bool is_numeric = false;
  bool owned = false;  ///< v is in a table's ValueStore

  const Value& value() const { return *v; }
  bool numeric() const { return is_numeric; }
};

/// a < b exactly as Value::operator< decides it, on the decoded numbers
/// when both sides are int64 or double.
template <typename A, typename B>
bool Below(const A& a, const B& b) {
  return a.numeric() && b.numeric() ? a.num < b.num : a.value() < b.value();
}

/// Whether `x` replaces the current MIN (MAX): strictly below (above) it,
/// so the first occurrence wins a tie.
template <typename X>
bool Improves(AggFunc func, const X& x, const Extreme& current) {
  return func == AggFunc::kMin ? Below(x, current) : Below(current, x);
}

struct AggState {
  uint64_t count = 0;   ///< non-null inputs (COUNT, AVG, "has a value")
  double sum = 0;       ///< SUM, AVG, in input order
  int64_t sum_int = 0;  ///< SUM while all_int
  bool all_int = true;  ///< every SUM input is a BIGINT and sum_int fits
  Extreme extreme;      ///< MIN or MAX
};

/// SUM's exact int64 sum: an input that is not a BIGINT, or an add that
/// overflows, leaves SUM to the double sum.
void AddIntSum(AggState* st, bool is_int, int64_t v) {
  if (st->all_int && (!is_int || __builtin_add_overflow(st->sum_int, v, &st->sum_int))) {
    st->all_int = false;
  }
}

/// Folds one input into the state of aggregate `func`, updating only the
/// fields it reads. `stable`: the input outlives the fold, so MIN/MAX keep
/// a pointer to it; a computed input is copied into `store` instead.
void Accumulate(AggFunc func, const Cell& in, bool stable, AggState* st, ValueStore* store) {
  if (in.kind == Cell::kNull) return;
  bool first = st->count++ == 0;
  switch (func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
      AddIntSum(st, in.kind == Cell::kInt, in.i);
      st->sum += in.num;
      break;
    case AggFunc::kAvg:
      st->sum += in.num;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (first || Improves(func, in, st->extreme)) {
        st->extreme = {stable ? in.v : &store->emplace_back(*in.v), in.num, in.numeric(),
                       !stable};
      }
      break;
  }
}

/// Merges a morsel-local state into `dst`, copying a computed extreme into
/// `store`: the one merge step of every parallel fold, typed or not.
void MergeAggState(AggFunc func, AggState* dst, const AggState& src, ValueStore* store) {
  bool first = dst->count == 0;
  dst->count += src.count;
  dst->sum += src.sum;
  AddIntSum(dst, src.all_int, src.sum_int);
  if ((func == AggFunc::kMin || func == AggFunc::kMax) && src.count > 0 &&
      (first || Improves(func, src.extreme, dst->extreme))) {
    dst->extreme = src.extreme;
    if (src.extreme.owned) dst->extreme.v = &store->emplace_back(*src.extreme.v);
  }
}

/// Folds one materialized input row into the states of its group. A
/// column input is read in place; the rows outlive the fold.
void UpdateAggStates(const std::vector<AggSpec>& aggregates, AggState* states,
                     const Row& row, ValueStore* store) {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    if (!spec.input) {
      Accumulate(spec.func, OneCell(), true, &states[a], store);
    } else if (spec.input->kind() == ExprKind::kColumn) {
      size_t c = spec.input->column_index();
      Accumulate(spec.func, c < row.size() ? MakeCell(row[c]) : NullCell(), true, &states[a],
                 store);
    } else {
      Value computed = spec.input->Eval(row);
      Accumulate(spec.func, MakeCell(computed), false, &states[a], store);
    }
  }
}

/// Value-keyed hash-aggregation table that remembers first-occurrence
/// order of its group keys: the fold over materialized rows, and the
/// reference the typed fold is checked against.
struct GroupTable {
  std::unordered_map<Row, size_t, RowKeyHash> index;
  std::vector<Row> keys;
  std::vector<AggState> states;  ///< group * num_aggs + aggregate
  ValueStore owned;

  AggState* FindOrAdd(const Row& key, size_t num_aggs) {
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, keys.size()).first;
      keys.push_back(key);
      states.resize(states.size() + num_aggs);
    }
    return states.data() + it->second * num_aggs;
  }
};

/// Folds materialized input rows into one GroupTable.
GroupTable FoldRows(ThreadPool* tp, size_t morsel, const PlanNode& node,
                    const std::vector<Row>& rows) {
  size_t num_aggs = node.aggregates.size();
  GroupTable groups;
  FoldMorsels(
      tp, morsel, rows.size(), [] { return GroupTable(); },
      [&](size_t begin, size_t end, GroupTable* table) {
        Row key;
        key.reserve(node.group_by.size());
        for (size_t i = begin; i < end; ++i) {
          key.clear();
          for (size_t g : node.group_by) key.push_back(rows[i][g]);
          UpdateAggStates(node.aggregates, table->FindOrAdd(key, num_aggs), rows[i],
                          &table->owned);
        }
      },
      [&](const GroupTable& local, GroupTable* out) {
        for (size_t g = 0; g < local.keys.size(); ++g) {
          AggState* dst = out->FindOrAdd(local.keys[g], num_aggs);
          for (size_t a = 0; a < num_aggs; ++a) {
            MergeAggState(node.aggregates[a].func, &dst[a], local.states[g * num_aggs + a],
                          &out->owned);
          }
        }
      },
      &groups);
  return groups;
}

/// Group slots of a typed fold, numbered in first-occurrence order and
/// found by their key codes: through a dense array over the whole code
/// space when that fits in one morsel (so clearing it costs no more than
/// the morsel does), else through an open-addressed hash on the codes.
class CodedSlots {
 public:
  CodedSlots(const std::vector<uint32_t>& spaces, size_t morsel)
      : k_(spaces.size()), strides_(k_) {
    uint64_t space = 1;
    dense_ = true;
    for (size_t g = k_; g-- > 0;) {
      strides_[g] = space;
      dense_ = dense_ && !__builtin_mul_overflow(space, uint64_t{spaces[g]}, &space) &&
               space <= morsel;
    }
    index_.assign(dense_ ? space : 16, 0);
    index_bytes_ = index_.size() * sizeof(uint32_t);
  }

  size_t size() const { return size_; }
  const uint32_t* codes(size_t slot) const { return codes_.data() + slot * k_; }
  /// Bytes of the code -> slot index at its largest.
  uint64_t index_bytes() const { return index_bytes_; }
  /// Frees the index once no more codes are looked up; slot codes stay.
  void ReleaseIndex() { std::vector<uint32_t>().swap(index_); }

  uint32_t FindOrAdd(const uint32_t* codes, bool* added) {
    uint32_t* entry;
    if (dense_) {
      uint64_t packed = 0;
      for (size_t g = 0; g < k_; ++g) packed += codes[g] * strides_[g];
      entry = &index_[packed];
    } else {
      if (2 * (size_ + 1) > index_.size()) Rehash(2 * index_.size());
      entry = Probe(codes);
    }
    *added = *entry == 0;
    if (*added) {
      *entry = static_cast<uint32_t>(++size_);
      codes_.insert(codes_.end(), codes, codes + k_);
    }
    return *entry - 1;
  }

 private:
  /// The hashed index entry holding `codes`, or the empty one where it goes.
  uint32_t* Probe(const uint32_t* codes) {
    uint64_t h = 0;
    for (size_t g = 0; g < k_; ++g) h = (h ^ codes[g]) * 0x9E3779B97F4A7C15ULL;
    size_t mask = index_.size() - 1;
    for (size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      uint32_t s = index_[i];
      if (s == 0 || std::equal(codes, codes + k_, this->codes(s - 1))) return &index_[i];
    }
  }
  void Rehash(size_t capacity) {
    index_.assign(capacity, 0);
    index_bytes_ = std::max<uint64_t>(index_bytes_, capacity * sizeof(uint32_t));
    for (size_t s = 0; s < size_; ++s) *Probe(codes(s)) = static_cast<uint32_t>(s + 1);
  }

  size_t k_;
  std::vector<uint64_t> strides_;  ///< dense: the mixed-radix packing
  bool dense_;
  std::vector<uint32_t> index_;    ///< slot + 1 by packed code or hash; 0 = none
  std::vector<uint32_t> codes_;    ///< slot * k + g
  size_t size_ = 0;
  uint64_t index_bytes_ = 0;
};

/// A typed fold's groups: each slot's key values at their first
/// occurrence, in place, and its aggregate states.
struct CodedGroups {
  CodedSlots slots;
  std::vector<const Value*> keys;  ///< slot * k + g
  std::vector<AggState> states;    ///< slot * num_aggs + aggregate
  ValueStore owned;
};

/// The aggregate inputs of one typed-fold row. COUNT(*) reads a constant;
/// each distinct plain-column input has a cell in `column` that the row
/// source refreshes per row (from a lookup table or in place); expression
/// inputs evaluate on `probe` after the source loads `probe_columns`.
/// `agg[a]` points at aggregate a's cell. One per morsel; not copyable.
struct InputCells {
  std::vector<size_t> columns;        ///< distinct plain-column inputs
  std::vector<size_t> probe_columns;  ///< columns the expression inputs read
  std::vector<size_t> exprs;          ///< aggregates with an expression input
  std::vector<Cell> column;
  std::vector<Value> computed;
  std::vector<Cell> expr;
  std::vector<const Cell*> agg;
  Row probe;

  /// The distinct plain-column inputs below `width`, in aggregate order.
  static std::vector<size_t> Columns(const PlanNode& node, size_t width) {
    std::vector<size_t> cols;
    for (const AggSpec& spec : node.aggregates) {
      if (!spec.input || spec.input->kind() != ExprKind::kColumn) continue;
      size_t c = spec.input->column_index();
      if (c < width && std::find(cols.begin(), cols.end(), c) == cols.end()) cols.push_back(c);
    }
    return cols;
  }

  InputCells(const PlanNode& node, size_t width)
      : columns(Columns(node, width)), column(columns.size()),
        computed(node.aggregates.size()), expr(node.aggregates.size()),
        agg(node.aggregates.size()), probe(width) {
    std::set<size_t> read;
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      const ExprPtr& input = node.aggregates[a].input;
      if (!input) {
        agg[a] = &OneCell();
      } else if (input->kind() != ExprKind::kColumn) {
        exprs.push_back(a);
        input->CollectColumns(&read);
        agg[a] = &expr[a];
      } else if (input->column_index() < width) {
        agg[a] = &column[std::find(columns.begin(), columns.end(), input->column_index()) -
                         columns.begin()];
      } else {
        agg[a] = &NullCell();
      }
    }
    probe_columns = ColumnsBelow(read, width);
  }
  InputCells(const InputCells&) = delete;
  InputCells& operator=(const InputCells&) = delete;

  /// Evaluates the expression inputs on the loaded probe row.
  void Evaluate(const PlanNode& node) {
    for (size_t a : exprs) {
      computed[a] = node.aggregates[a].input->Eval(probe);
      expr[a] = MakeCell(computed[a]);
    }
  }
};

/// The typed fold. for_rows(begin, end, fn) calls fn(codes, cells, key_at)
/// for input rows [begin, end) in order: the row's key codes, each
/// aggregate's input cell, and key_at(g), the row's key g in place.
template <typename ForRows>
CodedGroups FoldCoded(ThreadPool* tp, size_t morsel, size_t n, const PlanNode& node,
                      const std::vector<uint32_t>& spaces, const ForRows& for_rows) {
  size_t k = node.group_by.size();
  size_t num_aggs = node.aggregates.size();
  std::vector<bool> stable(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const ExprPtr& input = node.aggregates[a].input;
    stable[a] = !input || input->kind() == ExprKind::kColumn;
  }
  auto make = [&] { return CodedGroups{CodedSlots(spaces, morsel), {}, {}, {}}; };
  CodedGroups groups = make();
  FoldMorsels(
      tp, morsel, n, make,
      [&](size_t begin, size_t end, CodedGroups* t) {
        for_rows(begin, end, [&](const uint32_t* codes, const Cell* const* cells,
                                 const auto& key_at) {
          bool added = false;
          size_t slot = t->slots.FindOrAdd(codes, &added);
          if (added) {
            for (size_t g = 0; g < k; ++g) t->keys.push_back(key_at(g));
            t->states.resize(t->states.size() + num_aggs);
          }
          AggState* st = t->states.data() + slot * num_aggs;
          for (size_t a = 0; a < num_aggs; ++a) {
            Accumulate(node.aggregates[a].func, *cells[a], stable[a], &st[a], &t->owned);
          }
        });
        t->slots.ReleaseIndex();
      },
      [&](const CodedGroups& local, CodedGroups* out) {
        for (size_t s = 0; s < local.slots.size(); ++s) {
          bool added = false;
          size_t slot = out->slots.FindOrAdd(local.slots.codes(s), &added);
          if (added) {
            auto first = local.keys.begin() + static_cast<std::ptrdiff_t>(s * k);
            out->keys.insert(out->keys.end(), first, first + static_cast<std::ptrdiff_t>(k));
            out->states.resize(out->states.size() + num_aggs);
          }
          for (size_t a = 0; a < num_aggs; ++a) {
            MergeAggState(node.aggregates[a].func, &out->states[slot * num_aggs + a],
                          local.states[s * num_aggs + a], &out->owned);
          }
        }
      },
      &groups);
  return groups;
}

/// The typed fold's groups in GroupTable form: each key copied once per
/// group, for the emission both folds share.
GroupTable ToGroupTable(CodedGroups&& coded, size_t k) {
  GroupTable out;
  out.keys.resize(coded.slots.size());
  for (size_t s = 0; s < out.keys.size(); ++s) {
    for (size_t g = 0; g < k; ++g) out.keys[s].push_back(*coded.keys[s * k + g]);
  }
  out.states = std::move(coded.states);
  out.owned = std::move(coded.owned);  // a deque move keeps element addresses
  return out;
}

/// A dictionary's aggregate-input cells, decoded once per entry into two
/// flat arrays: the kind, and the payload bits (AsInt() of a BIGINT, else
/// NumericValue()). A fold reads 9 bytes per row instead of the 48-byte
/// Value, which matters once the dictionary outgrows the caches.
class CellTable {
 public:
  bool empty() const { return kind_.empty(); }
  uint64_t MemoryBytes() const { return kind_.size() * (sizeof(Cell::Kind) + sizeof(uint64_t)); }

  template <typename At>
  void Decode(uint64_t n, const At& at) {
    kind_.resize(n);
    payload_.resize(n);
    for (uint64_t id = 0; id < n; ++id) {
      Cell c = MakeCell(at(id));
      kind_[id] = c.kind;
      payload_[id] = c.kind == Cell::kInt ? static_cast<uint64_t>(c.i)
                                          : std::bit_cast<uint64_t>(c.num);
    }
  }
  /// The cell of entry `id`, whose Value is `v`.
  Cell Get(uint64_t id, const Value& v) const {
    Cell c;
    c.v = &v;
    c.kind = kind_[id];
    if (c.kind == Cell::kInt) {
      c.i = static_cast<int64_t>(payload_[id]);
      c.num = static_cast<double>(c.i);
    } else {
      c.num = std::bit_cast<double>(payload_[id]);
    }
    return c;
  }

 private:
  std::vector<Cell::Kind> kind_;
  std::vector<uint64_t> payload_;
};

/// One column of one scanned part, as the typed fold reads it by row id. As
/// a group key: a code per dictionary entry. As an aggregate input: a
/// CellTable per dictionary with no more entries than the part has
/// selected rows; a larger dictionary (`*_cells` empty) is decoded in
/// place per row.
struct PartColumn {
  const Column::Reader* col = nullptr;
  uint64_t main_n = 0;  ///< this column's own: a merge republishes columns one at a time
  std::vector<uint32_t> main_code, delta_code;
  CellTable main_cells, delta_cells;

  explicit PartColumn(const Column::Reader* c) : col(c), main_n(c->main_size()) {}

  uint32_t Code(uint64_t r) const {
    return r < main_n ? main_code[col->MainId(r)] : delta_code[col->DeltaId(r - main_n)];
  }
  const Value& At(uint64_t r) const {
    return r < main_n ? col->main_dictionary().At(col->MainId(r))
                      : col->DeltaDictValue(col->DeltaId(r - main_n));
  }
  Cell CellAt(uint64_t r) const {
    if (r < main_n) {
      uint64_t id = col->MainId(r);
      const Value& v = col->main_dictionary().At(id);
      return main_cells.empty() ? MakeCell(v) : main_cells.Get(id, v);
    }
    uint64_t id = col->DeltaId(r - main_n);
    const Value& v = col->DeltaDictValue(id);
    return delta_cells.empty() ? MakeCell(v) : delta_cells.Get(id, v);
  }
  void DecodeCells(size_t rows) {
    const SortedDictionary& dict = col->main_dictionary();
    if (dict.size() <= rows) {
      main_cells.Decode(dict.size(), [&](uint64_t id) -> const Value& { return dict.At(id); });
    }
    if (col->delta_dict_size() <= rows) {
      delta_cells.Decode(col->delta_dict_size(),
                         [&](uint64_t id) -> const Value& { return col->DeltaDictValue(id); });
    }
  }
  uint64_t MemoryBytes() const {
    return (main_code.size() + delta_code.size()) * sizeof(uint32_t) +
           main_cells.MemoryBytes() + delta_cells.MemoryBytes();
  }
};

/// One column of a scan selection: a PartColumn per part.
using ScanColumn = std::vector<PartColumn>;

/// Codes group key `key` in every part, once per dictionary entry, and
/// returns the code space. One part: its main value ids, and each delta
/// entry folded onto the main id of an equal value or numbered after the
/// main dictionary. Several parts: one Value -> code map over them all.
uint32_t CodeScanKey(ScanColumn* key) {
  if (key->size() == 1) {
    PartColumn& col = key->front();
    const SortedDictionary& dict = col.col->main_dictionary();
    col.main_code.resize(dict.size());
    std::iota(col.main_code.begin(), col.main_code.end(), 0u);
    auto next = static_cast<uint32_t>(dict.size());
    for (uint64_t d = 0; d < col.col->delta_dict_size(); ++d) {
      std::optional<uint64_t> id = dict.Lookup(col.col->DeltaDictValue(d));
      col.delta_code.push_back(id ? static_cast<uint32_t>(*id) : next++);
    }
    return next;
  }
  ValueCodes codes;
  auto code = [&codes](const Value& v) {
    return codes.try_emplace(&v, static_cast<uint32_t>(codes.size())).first->second;
  };
  for (PartColumn& col : *key) {
    const SortedDictionary& dict = col.col->main_dictionary();
    for (uint64_t id = 0; id < dict.size(); ++id) col.main_code.push_back(code(dict.At(id)));
    for (uint64_t d = 0; d < col.col->delta_dict_size(); ++d) {
      col.delta_code.push_back(code(col.col->DeltaDictValue(d)));
    }
  }
  return static_cast<uint32_t>(codes.size());
}

/// Fails unless every part of `sel` emits each column in `cols` (a
/// partition may lack a column the first one has).
template <typename Selection>
Status CheckParts(const Selection& sel, const std::vector<size_t>& cols, const char* reader) {
  for (const auto& part : sel.parts) {
    for (size_t c : cols) {
      if (c >= part.emit.size()) {
        return Status::InvalidArgument(std::string(reader) + " reads column " +
                                       sel.column_names[c] + ", which partition " +
                                       part.table->name() + " lacks");
      }
    }
  }
  return Status::OK();
}

/// Output column `c` of `sel`, opened in every part.
template <typename Selection>
ScanColumn OpenColumn(const Selection& sel, size_t c) {
  ScanColumn col;
  for (const auto& part : sel.parts) col.emplace_back(&part.guard->col(part.emit[c]));
  return col;
}

/// Decodes the cell tables of aggregate input `col` (see PartColumn) and
/// returns the bytes they hold.
template <typename Selection>
uint64_t DecodeInput(const Selection& sel, ScanColumn* col) {
  uint64_t bytes = 0;
  for (size_t p = 0; p < col->size(); ++p) {
    (*col)[p].DecodeCells(sel.parts[p].rows.size());
    bytes += (*col)[p].MemoryBytes();
  }
  return bytes;
}

/// The columns of `node`'s group keys and aggregate inputs below `width`.
std::vector<size_t> ColumnsRead(const PlanNode& node, size_t width) {
  std::set<size_t> read(node.group_by.begin(), node.group_by.end());
  for (const AggSpec& agg : node.aggregates) {
    if (agg.input) agg.input->CollectColumns(&read);
  }
  return ColumnsBelow(read, width);
}

/// Codes column `c` of `rows` (a row join side), one hash per row: equal
/// values share a code, numbered in row order. Returns the code space.
uint32_t CodeRows(const std::vector<Row>& rows, size_t c, std::vector<uint32_t>* out) {
  ValueCodes codes;
  out->reserve(rows.size());
  for (const Row& row : rows) {
    out->push_back(codes.try_emplace(&row[c], static_cast<uint32_t>(codes.size())).first->second);
  }
  return static_cast<uint32_t>(codes.size());
}

/// The typed fold over a scan's selection (Executor::ScanSelection): codes
/// its group keys and decodes its plain-column inputs once per dictionary
/// entry, charges those tables and the slot index through `charge`, and
/// folds the selected rows without materializing them.
template <typename Selection, typename ChargeFn>
StatusOr<GroupTable> FoldScan(ThreadPool* tp, size_t morsel, const PlanNode& node,
                              const Selection& sel, const ChargeFn& charge) {
  size_t width = sel.column_names.size();
  size_t k = node.group_by.size();
  POLY_RETURN_IF_ERROR(CheckParts(sel, ColumnsRead(node, width), "aggregate"));
  uint64_t bytes = 0;
  std::vector<ScanColumn> keys, inputs;
  std::vector<uint32_t> spaces;
  for (size_t g : node.group_by) {
    keys.push_back(OpenColumn(sel, g));
    spaces.push_back(CodeScanKey(&keys.back()));
    for (const PartColumn& col : keys.back()) bytes += col.MemoryBytes();
  }
  for (size_t c : InputCells::Columns(node, width)) {
    inputs.push_back(OpenColumn(sel, c));
    bytes += DecodeInput(sel, &inputs.back());
  }
  POLY_RETURN_IF_ERROR(charge(bytes));

  CodedGroups groups = FoldCoded(
      tp, morsel, sel.size(), node, spaces, [&](size_t begin, size_t end, const auto& fn) {
        InputCells cells(node, width);
        std::vector<uint32_t> codes(k);
        sel.ForRange(begin, end, [&](const auto& part, uint64_t r) {
          auto p = static_cast<size_t>(&part - sel.parts.data());
          for (size_t g = 0; g < k; ++g) codes[g] = keys[g][p].Code(r);
          for (size_t j = 0; j < cells.column.size(); ++j) cells.column[j] = inputs[j][p].CellAt(r);
          if (!cells.exprs.empty()) {
            for (size_t c : cells.probe_columns) {
              cells.probe[c] = part.guard->GetValue(r, part.emit[c]);
            }
            cells.Evaluate(node);
          }
          fn(codes.data(), cells.agg.data(), [&](size_t g) { return &keys[g][p].At(r); });
        });
      });
  POLY_RETURN_IF_ERROR(charge(groups.slots.index_bytes()));
  return ToGroupTable(std::move(groups), k);
}

/// The typed fold over a hash join's match pairs (Executor::JoinMatches),
/// reading both sides in place: a group key is coded once per dictionary
/// entry on a scan side and once per row on a row side, and a plain-column
/// input is read through a scan side's cell tables or from a row side's
/// cell. No joined row is materialized.
template <typename Join, typename ChargeFn>
StatusOr<GroupTable> FoldJoin(ThreadPool* tp, size_t morsel, const PlanNode& node,
                              const Join& join, const ChargeFn& charge) {
  using Side = std::decay_t<decltype(join.left)>;
  const Side* sides[2] = {&join.left, &join.right};
  size_t lw = join.left.column_names().size();
  size_t width = lw + join.right.column_names().size();
  // Joined column c is column local(c) of side side_of(c).
  auto side_of = [lw](size_t c) { return c < lw ? size_t{0} : size_t{1}; };
  auto local = [lw](size_t c) { return c < lw ? c : c - lw; };
  for (size_t s = 0; s < 2; ++s) {
    if (!sides[s]->scan) continue;
    std::vector<size_t> cols;
    for (size_t c : ColumnsRead(node, width)) {
      if (side_of(c) == s) cols.push_back(local(c));
    }
    POLY_RETURN_IF_ERROR(CheckParts(sides[s]->sel, cols, "aggregate"));
  }

  size_t k = node.group_by.size();
  // A key on a scan side has a column (a scan has at least one part), a
  // key on a row side a code per row; likewise an input on a scan side.
  std::vector<ScanColumn> key_cols(k);
  std::vector<std::vector<uint32_t>> key_rows(k);
  std::vector<uint32_t> spaces;
  uint64_t bytes = 0;
  for (size_t g = 0; g < k; ++g) {
    size_t c = node.group_by[g];
    const Side& side = *sides[side_of(c)];
    if (side.scan) {
      key_cols[g] = OpenColumn(side.sel, local(c));
      spaces.push_back(CodeScanKey(&key_cols[g]));
      for (const PartColumn& col : key_cols[g]) bytes += col.MemoryBytes();
    } else {
      spaces.push_back(CodeRows(side.rows->rows, local(c), &key_rows[g]));
      bytes += key_rows[g].size() * sizeof(uint32_t);
    }
  }
  std::vector<size_t> inputs = InputCells::Columns(node, width);
  std::vector<ScanColumn> input_cols(inputs.size());
  for (size_t j = 0; j < inputs.size(); ++j) {
    const Side& side = *sides[side_of(inputs[j])];
    if (!side.scan) continue;
    input_cols[j] = OpenColumn(side.sel, local(inputs[j]));
    bytes += DecodeInput(side.sel, &input_cols[j]);
  }
  POLY_RETURN_IF_ERROR(charge(bytes));

  CodedGroups groups = FoldCoded(
      tp, morsel, join.pairs.size(), node, spaces,
      [&](size_t begin, size_t end, const auto& fn) {
        InputCells cells(node, width);
        std::vector<uint32_t> codes(k);
        for (size_t i = begin; i < end; ++i) {
          // (part, row id) of the pair on each side.
          std::pair<size_t, uint64_t> at[2] = {join.left.Locate(join.pairs[i].first),
                                               join.right.Locate(join.pairs[i].second)};
          auto cell = [&](size_t c) -> const Value& {
            return sides[side_of(c)]->rows->rows[at[side_of(c)].second][local(c)];
          };
          auto key_at = [&](size_t g) -> const Value* {
            auto [p, r] = at[side_of(node.group_by[g])];
            return key_cols[g].empty() ? &cell(node.group_by[g]) : &key_cols[g][p].At(r);
          };
          for (size_t g = 0; g < k; ++g) {
            auto [p, r] = at[side_of(node.group_by[g])];
            codes[g] = key_cols[g].empty() ? key_rows[g][r] : key_cols[g][p].Code(r);
          }
          for (size_t j = 0; j < inputs.size(); ++j) {
            auto [p, r] = at[side_of(inputs[j])];
            cells.column[j] =
                input_cols[j].empty() ? MakeCell(cell(inputs[j])) : input_cols[j][p].CellAt(r);
          }
          if (!cells.exprs.empty()) {
            for (size_t c : cells.probe_columns) {
              const Side& side = *sides[side_of(c)];
              auto [p, r] = at[side_of(c)];
              cells.probe[c] = side.scan ? side.sel.parts[p].guard->GetValue(
                                               r, side.sel.parts[p].emit[local(c)])
                                         : cell(c);
            }
            cells.Evaluate(node);
          }
          fn(codes.data(), cells.agg.data(), key_at);
        }
      });
  POLY_RETURN_IF_ERROR(charge(groups.slots.index_bytes()));
  return ToGroupTable(std::move(groups), k);
}

/// A hash join's build side: each distinct key (by type and representation)
/// once, read in place where it lives (a dictionary entry, a row's cell),
/// with the ascending positions of the build rows that carry it. A probe
/// value matches every key that SQL `=` calls equal to it: numeric for
/// int64/double, exact otherwise, never NULL. Such keys hash alike
/// (Value::Hash), so they lie on one probe run; when several match (Int 5
/// beside Double 5.0), their position lists merge.
class JoinIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;  ///< a NULL key's entry
  /// Build positions, ascending.
  struct Matches {
    const size_t* begin = nullptr;
    const size_t* end = nullptr;
  };

  /// The entry of `key`, added at its first occurrence; kNone for NULL.
  /// `key` must outlive the index.
  uint32_t Add(const Value& key) {
    if (key.is_null()) return kNone;
    if (2 * (keys_.size() + 1) > slots_.size()) Rehash(std::max<size_t>(16, 2 * slots_.size()));
    uint64_t h = key.Hash();
    size_t mask = slots_.size() - 1;
    for (size_t i = Home(h);; i = (i + 1) & mask) {
      uint32_t e = slots_[i];
      if (e == 0) {
        keys_.push_back(&key);
        hashes_.push_back(h);
        slots_[i] = static_cast<uint32_t>(keys_.size());
        return slots_[i] - 1;
      }
      const Value& other = *keys_[e - 1];
      if (hashes_[e - 1] == h && other.type() == key.type() && other == key) return e - 1;
    }
  }

  /// Groups the build positions by entry: entry_of[pos] is the entry of
  /// position pos (kNone: none). Each entry's positions stay ascending.
  void Group(const std::vector<uint32_t>& entry_of) {
    offsets_.assign(keys_.size() + 1, 0);
    for (uint32_t e : entry_of) {
      if (e != kNone) ++offsets_[e + 1];
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    positions_.resize(offsets_.back());
    std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
    for (size_t pos = 0; pos < entry_of.size(); ++pos) {
      if (entry_of[pos] != kNone) positions_[next[entry_of[pos]]++] = pos;
    }
  }

  /// The build positions whose key is `=` to `v`. A list merged from
  /// several keys is kept in `merged`.
  Matches Find(const Value& v, std::deque<std::vector<size_t>>* merged) const {
    Matches out;
    if (v.is_null() || keys_.empty()) return out;
    uint64_t h = v.Hash();
    size_t mask = slots_.size() - 1;
    bool found = false;
    for (size_t i = Home(h); slots_[i] != 0; i = (i + 1) & mask) {
      uint32_t e = slots_[i] - 1;
      if (hashes_[e] != h || offsets_[e] == offsets_[e + 1] ||
          !CompareValues(CmpOp::kEq, v, *keys_[e])) {
        continue;
      }
      Matches m{positions_.data() + offsets_[e], positions_.data() + offsets_[e + 1]};
      if (!found) {
        out = m;
        found = true;
        continue;
      }
      std::vector<size_t>& both = merged->emplace_back();
      both.reserve(static_cast<size_t>((out.end - out.begin) + (m.end - m.begin)));
      std::merge(out.begin, out.end, m.begin, m.end, std::back_inserter(both));
      out = {both.data(), both.data() + both.size()};
    }
    return out;
  }

 private:
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Rehash(size_t capacity) {
    slots_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
    size_t mask = capacity - 1;
    for (size_t e = 0; e < keys_.size(); ++e) {
      size_t i = Home(hashes_[e]);
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(e + 1);
    }
  }

  std::vector<const Value*> keys_;  ///< entry -> key, in place
  std::vector<uint64_t> hashes_;    ///< entry -> key.Hash()
  std::vector<uint32_t> slots_;     ///< entry + 1 by hash, linear probing; 0 = empty
  int shift_ = 64;
  std::vector<size_t> offsets_;     ///< entry e's positions: [offsets_[e], offsets_[e + 1])
  std::vector<size_t> positions_;
};

/// A join key column of one scanned part, each key mapped through a
/// function to a T (its build entry, or its probe matches): once per
/// dictionary entry when the dictionary has no more entries than the part
/// has selected rows, else once per row read.
template <typename T>
class KeyMap {
 public:
  template <typename F>
  KeyMap(const Column::Reader* col, size_t rows, const F& f)
      : col_(col), main_n_(col->main_size()) {
    const SortedDictionary& dict = col->main_dictionary();
    main_mapped_ = dict.size() <= rows;
    for (uint64_t id = 0; main_mapped_ && id < dict.size(); ++id) main_.push_back(f(dict.At(id)));
    delta_mapped_ = col->delta_dict_size() <= rows;
    for (uint64_t id = 0; delta_mapped_ && id < col->delta_dict_size(); ++id) {
      delta_.push_back(f(col->DeltaDictValue(id)));
    }
  }

  /// The T of row `r`; `f` maps its key when its dictionary is not mapped.
  template <typename F>
  T Get(uint64_t r, const F& f) const {
    if (r < main_n_) {
      uint64_t id = col_->MainId(r);
      return main_mapped_ ? main_[id] : f(col_->main_dictionary().At(id));
    }
    uint64_t id = col_->DeltaId(r - main_n_);
    return delta_mapped_ ? delta_[id] : f(col_->DeltaDictValue(id));
  }
  uint64_t MemoryBytes() const { return (main_.size() + delta_.size()) * sizeof(T); }

 private:
  const Column::Reader* col_;
  uint64_t main_n_;  ///< this column's own: a merge republishes columns one at a time
  bool main_mapped_ = false, delta_mapped_ = false;
  std::vector<T> main_, delta_;
};

/// The top-level conjuncts of `e` (e itself when it is not an AND).
void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kAnd) {
    FlattenAnd(e->left(), out);
    FlattenAnd(e->right(), out);
  } else {
    out->push_back(e);
  }
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
/// into `out`, adding its counts to `stats` (which may be a worker-local
/// partial) once, at the end: workers on neighbouring morsels would
/// otherwise share the partials' cache line on every row. One morsel of a
/// scan. The guard is immutable and shared by every morsel of one table
/// scan: one pin covers stamps and values for the whole fan-out
/// (DESIGN.md §12.5).
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
  uint64_t scanned = 0, materialized = 0;
  guard.ScanVisibleRange(view, begin, end, [&](uint64_t r) {
    ++scanned;
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
    ++materialized;
    out->push_back(r);
  });
  stats->rows_scanned += scanned;
  stats->rows_materialized += materialized;
}

}  // namespace

// Declared in executor.h; shared with the compiled path's access
// classification.
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
    : Executor(db, view, db->exec_options()) {}

Executor::Executor(const Database* db, ReadView view, const ExecOptions& opts)
    : db_(db), view_(view), opts_(opts) {}

ThreadPool* Executor::pool() {
  if (pool_ == nullptr) pool_ = db_->exec_pool(opts_.num_threads);
  return pool_;
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
  // Admission (DESIGN.md §13.2), the one site: on a governed database an
  // execution that brings no budget of its own mints a ticket in the
  // caller's workload class. Callers already holding a per-query budget
  // pass through.
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

Status Executor::RunSelectScan(const PlanNode& node, ScanSelection* out) {
  return RunOperator(node, [&]() -> StatusOr<Produced> {
    POLY_RETURN_IF_ERROR(SelectScan(node, out));
    return Produced{out->size(), out->size() * sizeof(uint64_t)};
  });
}

StatusOr<std::shared_ptr<const ResultSet>> Executor::ExecShared(const PlanNode& node) {
  if (node.kind != PlanKind::kRows) {
    POLY_ASSIGN_OR_RETURN(ResultSet rs, Exec(node));
    return std::make_shared<const ResultSet>(std::move(rs));
  }
  POLY_RETURN_IF_ERROR(RunOperator(node, [&]() -> StatusOr<Produced> {
    if (node.rows == nullptr) return Status::InvalidArgument("unbound row input " + node.table);
    return Produced{node.rows->num_rows(), EstimateSpanBytes(*node.rows)};
  }));
  return node.rows;
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

void Executor::JoinSide::AppendRow(size_t pos, Row* out) const {
  if (!scan) {
    const Row& row = rows->rows[pos];
    out->insert(out->end(), row.begin(), row.end());
    return;
  }
  auto [p, r] = sel.Locate(pos);
  const ScanSelection::Part& part = sel.parts[p];
  for (size_t c : part.emit) out->push_back(part.guard->GetValue(r, c));
}

Status Executor::ReadJoinSide(const PlanNode& child, JoinSide* out) {
  out->scan = child.kind == PlanKind::kScan;
  if (out->scan) return RunSelectScan(child, &out->sel);
  POLY_ASSIGN_OR_RETURN(out->rows, ExecShared(child));
  return Status::OK();
}

Status Executor::MatchJoin(const PlanNode& node, JoinMatches* out) {
  POLY_RETURN_IF_ERROR(ReadJoinSide(*node.children[0], &out->left));
  POLY_RETURN_IF_ERROR(ReadJoinSide(*node.children[1], &out->right));
  const JoinSide& left = out->left;
  const JoinSide& right = out->right;
  if (node.left_key >= left.column_names().size() ||
      node.right_key >= right.column_names().size()) {
    return Status::InvalidArgument("join key out of range");
  }
  if (left.scan) POLY_RETURN_IF_ERROR(CheckParts(left.sel, {node.left_key}, "join"));
  if (right.scan) POLY_RETURN_IF_ERROR(CheckParts(right.sel, {node.right_key}, "join"));

  // Build side: the entry of each right position's key (looked up once per
  // dictionary entry of a scan side), then positions grouped by entry in
  // ascending order.
  JoinIndex build;
  auto add = [&build](const Value& key) { return build.Add(key); };
  std::vector<uint32_t> entry_of;
  entry_of.reserve(right.size());
  if (right.scan) {
    for (const ScanSelection::Part& part : right.sel.parts) {
      KeyMap<uint32_t> entries(&part.guard->col(part.emit[node.right_key]), part.rows.size(),
                               add);
      for (uint64_t r : part.rows) entry_of.push_back(entries.Get(r, add));
    }
  } else {
    for (const Row& row : right.rows->rows) entry_of.push_back(add(row[node.right_key]));
  }
  build.Group(entry_of);
  // Build side is internal state no span sees: charge ~3 words per entry
  // (hash slot + index vector element) before probing fans out.
  POLY_RETURN_IF_ERROR(ChargeInternal(right.size() * 24));

  // Probe side: a scan side finds the matches of each dictionary entry
  // once; morsels of left positions, matches merged in left order.
  std::deque<std::vector<size_t>> merged;
  std::vector<KeyMap<JoinIndex::Matches>> probe;
  uint64_t probe_bytes = 0;
  if (left.scan) {
    for (const ScanSelection::Part& part : left.sel.parts) {
      probe.emplace_back(&part.guard->col(part.emit[node.left_key]), part.rows.size(),
                         [&](const Value& key) { return build.Find(key, &merged); });
      probe_bytes += probe.back().MemoryBytes();
    }
  }
  POLY_RETURN_IF_ERROR(ChargeInternal(probe_bytes));
  MorselConcat(
      pool(), morsel_rows(), left.size(),
      [&](size_t begin, size_t end, std::vector<std::pair<size_t, size_t>>* pairs) {
        std::deque<std::vector<size_t>> row_merged;  // one row's, while it emits
        auto find = [&](const Value& key) {
          if (!row_merged.empty()) row_merged.clear();
          return build.Find(key, &row_merged);
        };
        auto emit = [pairs](size_t pos, JoinIndex::Matches m) {
          for (const size_t* r = m.begin; r != m.end; ++r) pairs->emplace_back(pos, *r);
        };
        if (left.scan) {
          size_t pos = begin;
          left.sel.ForRange(begin, end, [&](const ScanSelection::Part& part, uint64_t r) {
            emit(pos++, probe[static_cast<size_t>(&part - left.sel.parts.data())].Get(r, find));
          });
        } else {
          for (size_t pos = begin; pos < end; ++pos) {
            emit(pos, find(left.rows->rows[pos][node.left_key]));
          }
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
  // Only matched rows are read, and only their emitted columns.
  MorselConcat(
      pool(), morsel_rows(), join.pairs.size(),
      [&](size_t begin, size_t end, std::vector<Row>* rows) {
        rows->reserve(rows->size() + (end - begin));
        for (size_t i = begin; i < end; ++i) {
          Row joined;
          joined.reserve(out.column_names.size());
          join.left.AppendRow(join.pairs[i].first, &joined);
          join.right.AppendRow(join.pairs[i].second, &joined);
          rows->push_back(std::move(joined));
        }
      },
      &out.rows);
  return out;
}

StatusOr<ResultSet> Executor::ExecAggregate(const PlanNode& node) {
  const PlanNode& child = *node.children[0];
  auto check_keys = [&node](const std::vector<std::string>& in_names) {
    for (size_t g : node.group_by) {
      if (g >= in_names.size()) return Status::InvalidArgument("group key out of range");
    }
    return Status::OK();
  };
  auto charge = [this](uint64_t bytes) { return ChargeInternal(bytes); };

  // Late materialization: over a scan or a join the aggregate runs the
  // typed fold on the selection / match pairs, over anything else the
  // Value fold on materialized rows. Both walk the input in the same
  // morsels, so the result is identical. The inputs live until the rows
  // are emitted: group keys and MIN/MAX point into them.
  ScanSelection sel;
  JoinMatches join;
  std::shared_ptr<const ResultSet> in;
  std::vector<std::string> in_names;
  GroupTable groups;
  if (child.kind == PlanKind::kScan) {
    POLY_RETURN_IF_ERROR(RunSelectScan(child, &sel));
    POLY_RETURN_IF_ERROR(check_keys(sel.column_names));
    POLY_ASSIGN_OR_RETURN(groups, FoldScan(pool(), morsel_rows(), node, sel, charge));
    in_names = sel.column_names;
  } else if (child.kind == PlanKind::kHashJoin) {
    POLY_RETURN_IF_ERROR(RunOperator(child, [&]() -> StatusOr<Produced> {
      POLY_RETURN_IF_ERROR(MatchJoin(child, &join));
      return Produced{join.pairs.size(),
                      join.pairs.size() * sizeof(std::pair<size_t, size_t>)};
    }));
    in_names = join.column_names();
    POLY_RETURN_IF_ERROR(check_keys(in_names));
    POLY_ASSIGN_OR_RETURN(groups, FoldJoin(pool(), morsel_rows(), node, join, charge));
  } else {
    POLY_ASSIGN_OR_RETURN(in, ExecShared(child));
    POLY_RETURN_IF_ERROR(check_keys(in->column_names));
    groups = FoldRows(pool(), morsel_rows(), node, in->rows);
    in_names = in->column_names;
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
    Row row = std::move(groups.keys[g]);
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggState& st = groups.states[g * num_aggs + a];
      switch (node.aggregates[a].func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(static_cast<int64_t>(st.count)));
          break;
        case AggFunc::kSum:
          if (st.count == 0) {
            row.push_back(Value::Null());
          } else if (st.all_int) {
            row.push_back(Value::Int(st.sum_int));
          } else {
            row.push_back(Value::Dbl(st.sum));
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          row.push_back(st.count ? st.extreme.value() : Value::Null());
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
