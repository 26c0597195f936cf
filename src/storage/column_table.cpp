#include "storage/column_table.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/metrics.h"
#include "types/value_serde.h"

namespace poly {

ColumnTable::ColumnTable(std::string name, Schema schema, bool compress_main)
    : name_(std::move(name)), compress_main_(compress_main) {
  auto* st = new TableState;
  st->schema = std::move(schema);
  st->cols.reserve(st->schema.num_columns());
  for (size_t i = 0; i < st->schema.num_columns(); ++i) {
    st->cols.push_back(std::make_shared<Column>(&gc_, compress_main_));
  }
  st->versions = std::make_shared<VersionStore>(&gc_);
  state_.store(st, std::memory_order_release);
}

ColumnTable::~ColumnTable() {
  // Return every byte this table charged (bind-time footprint + per-append
  // estimates). This is what makes pressure-driven spill observable in the
  // budget: demoting a partition destroys the hot copy, and usage drops.
  if (auto* budget = budget_.load(std::memory_order_acquire)) {
    budget->Release(budget_charged_.load(std::memory_order_relaxed));
  }
  // Contract: no live guards. The current state is freed here; retired
  // generations (and their columns/version stores, via shared_ptr) are
  // freed by gc_'s destructor, which runs after this body.
  delete state_.load(std::memory_order_relaxed);
}

void ColumnTable::BindMemoryBudget(resource::BudgetNode* node) {
  if (node == nullptr) return;
  uint64_t current = MemoryBytes();
  budget_charged_.fetch_add(current, std::memory_order_relaxed);
  node->ForceCharge(current);
  budget_.store(node, std::memory_order_release);
}

namespace {

/// Cheap per-append footprint estimate: value payloads plus the two MVCC
/// stamps. Deliberately an estimate — exact delta bytes would need a column
/// walk; the budget meters growth, it is not an allocator.
uint64_t EstimateRowBytes(const Row& values) {
  uint64_t bytes = 16;  // cts + dts stamps
  for (const Value& v : values) {
    bytes += 8;
    if (!v.is_null() && v.type() == DataType::kString) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

}  // namespace

StatusOr<uint64_t> ColumnTable::AppendVersion(const Row& values, uint64_t cts_stamp) {
  TableState* st = state_.load(std::memory_order_relaxed);
  if (values.size() != st->cols.size()) {
    return Status::InvalidArgument("row width " + std::to_string(values.size()) +
                                   " != schema width " +
                                   std::to_string(st->cols.size()) + " for table " +
                                   name_);
  }
  for (size_t c = 0; c < st->cols.size(); ++c) {
    if (values[c].is_null() && !st->schema.column(c).nullable) {
      return Status::InvalidArgument("null in non-nullable column " +
                                     st->schema.column(c).name);
    }
    st->cols[c]->Append(values[c]);
  }
  // Delta growth is force-charged (never rejected): an insert halfway
  // through its columns cannot unwind. Overcommit is handled by the
  // pressure broker spilling cold partitions, not by failing writers.
  if (auto* budget = budget_.load(std::memory_order_acquire)) {
    uint64_t row_bytes = EstimateRowBytes(values);
    budget_charged_.fetch_add(row_bytes, std::memory_order_relaxed);
    budget->ForceCharge(row_bytes);
  }
  // Column values (and any new delta-dictionary entries) are fully written
  // and release-published before the version store publishes the new
  // watermark, so a reader that observes the row also observes its values
  // (DESIGN.md §12.5).
  return st->versions->Append(cts_stamp, kNoStamp);
}

Status ColumnTable::SetDeleteStamp(uint64_t row, uint64_t stamp) {
  VersionStore* vs = state_.load(std::memory_order_relaxed)->versions.get();
  if (row >= vs->WriterSize()) return Status::OutOfRange("row out of range");
  if (vs->WriterLoadDts(row) != kNoStamp) {
    return Status::Aborted("write-write conflict on " + name_ + " row " +
                           std::to_string(row));
  }
  vs->WriterStoreDts(row, stamp);
  return Status::OK();
}

void ColumnTable::ResolveCreateStamp(uint64_t row, uint64_t commit_ts) {
  state_.load(std::memory_order_relaxed)->versions->WriterStoreCts(row, commit_ts);
}

void ColumnTable::ResolveDeleteStamp(uint64_t row, uint64_t commit_ts) {
  state_.load(std::memory_order_relaxed)->versions->WriterStoreDts(row, commit_ts);
}

void ColumnTable::ClearDeleteStamp(uint64_t row) {
  state_.load(std::memory_order_relaxed)->versions->WriterStoreDts(row, kNoStamp);
}

uint64_t ColumnTable::WriterLoadCts(uint64_t row) const {
  return state_.load(std::memory_order_relaxed)->versions->WriterLoadCts(row);
}

uint64_t ColumnTable::WriterLoadDts(uint64_t row) const {
  return state_.load(std::memory_order_relaxed)->versions->WriterLoadDts(row);
}

Status ColumnTable::AddColumn(ColumnDef def) {
  TableState* st = state_.load(std::memory_order_relaxed);
  if (st->schema.Contains(def.name)) {
    return Status::AlreadyExists("column '" + def.name + "' exists in " + name_);
  }
  if (!def.nullable) {
    return Status::InvalidArgument("late-added columns must be nullable");
  }
  auto col = std::make_shared<Column>(&gc_, compress_main_);
  for (uint64_t r = 0; r < st->versions->WriterSize(); ++r) {
    col->Append(Value::Null());
  }
  // Publish a fresh state that SHARES the existing columns and version
  // store; only the column-list vector and schema are new. An in-flight
  // guard keeps the old state (old column count) until it unpins — adding
  // a column never invalidates a running scan (DESIGN.md §12.5).
  auto* fresh = new TableState;
  fresh->schema = st->schema;
  fresh->schema.AddColumn(std::move(def));
  fresh->cols = st->cols;
  fresh->cols.push_back(std::move(col));
  fresh->versions = st->versions;
  fresh->vacuums = st->vacuums;
  state_.store(fresh, std::memory_order_seq_cst);
  gc_.Retire([st] { delete st; });
  gc_.ReclaimExpired();
  return Status::OK();
}

TableMergeStats ColumnTable::Merge() {
  TableState* st = state_.load(std::memory_order_relaxed);
#if defined(__GLIBC__)
  // A merge that replaces a main builds each column's new main beside the
  // old one. Free heap pages go back to the kernel first, so the new mains
  // land on top of live data only. Otherwise they may or may not fit the
  // free memory the heap holds, which depends on which thread merged last
  // and when the old mains were reclaimed, and a merge's peak footprint
  // varies from run to run. A first merge replaces nothing; trimming there
  // would only make a bulk load fault its pages back in.
  if (!st->cols.empty() && st->cols[0]->main_size() > 0) malloc_trim(0);
#endif
  TableMergeStats stats;
  for (size_t c = 0; c < st->cols.size(); ++c) {
    stats.rows_moved = std::max(stats.rows_moved, st->cols[c]->delta_size());
    ColumnMergeStats cs =
        st->cols[c]->Merge(st->schema.column(c).generated_key_order);
    if (cs.fast_path) {
      ++stats.columns_fast_path;
    } else {
      ++stats.columns_general_path;
    }
    stats.ids_reencoded += cs.ids_reencoded;
  }
  metrics::Registry& reg = metrics::Default();
  reg.counter("storage.merge.count")->Add(1);
  reg.counter("storage.merge.rows_moved")->Add(stats.rows_moved);
  reg.counter("storage.merge.columns_fast_path")->Add(stats.columns_fast_path);
  reg.counter("storage.merge.ids_reencoded")->Add(stats.ids_reencoded);
  return stats;
}

uint64_t ColumnTable::Vacuum(uint64_t watermark) {
  TableState* st = state_.load(std::memory_order_relaxed);
  // Writer-side stamp walk: Vacuum runs under the write latch, so the
  // writer view of the version store is stable.
  VersionStore* vs = st->versions.get();
  uint64_t n = vs->WriterSize();
  std::vector<uint64_t> survivors;
  std::vector<std::pair<uint64_t, uint64_t>> surviving_stamps;
  survivors.reserve(n);
  for (uint64_t r = 0; r < n; ++r) {
    uint64_t dts = vs->WriterLoadDts(r);
    bool dead = dts != kNoStamp && !StampIsUncommitted(dts) && dts <= watermark;
    if (!dead) {
      survivors.push_back(r);
      surviving_stamps.emplace_back(vs->WriterLoadCts(r), dts);
    }
  }
  uint64_t removed = n - survivors.size();
  if (removed == 0) return 0;

  // Build a completely fresh generation: renumbered values AND renumbered
  // stamps travel in ONE TableState, published with one atomic store — a
  // reader can never pair post-vacuum stamps with pre-vacuum values or
  // vice versa. The old generation is retired; a pinned guard keeps it.
  auto* fresh = new TableState;
  fresh->schema = st->schema;
  fresh->cols.reserve(st->cols.size());
  for (size_t c = 0; c < st->cols.size(); ++c) {
    auto col = std::make_shared<Column>(&gc_, compress_main_);
    for (uint64_t r : survivors) col->Append(st->cols[c]->Get(r));
    col->Merge(st->schema.column(c).generated_key_order);
    fresh->cols.push_back(std::move(col));
  }
  fresh->versions = std::make_shared<VersionStore>(&gc_);
  for (const auto& [cts, dts] : surviving_stamps) {
    fresh->versions->Append(cts, dts);
  }
  fresh->vacuums = st->vacuums + 1;
  state_.store(fresh, std::memory_order_seq_cst);
  gc_.Retire([st] { delete st; });
  gc_.ReclaimExpired();
  return removed;
}

size_t ColumnTable::MemoryBytes() const {
  EpochPin pin(&gc_);
  const TableState* st = state_.load(std::memory_order_seq_cst);
  size_t bytes = st->versions->MemoryBytes();
  for (const auto& col : st->cols) bytes += col->MemoryBytes();
  return bytes;
}

void ColumnTable::SaveTo(Serializer* out) const {
  ReadGuard g(this);
  out->PutString(name_);
  out->PutVarint(g.schema().num_columns());
  for (size_t c = 0; c < g.schema().num_columns(); ++c) {
    const ColumnDef& def = g.schema().column(c);
    out->PutString(def.name);
    out->PutU8(static_cast<uint8_t>(def.type));
    out->PutU8(def.nullable ? 1 : 0);
    out->PutU8(def.generated_key_order ? 1 : 0);
  }
  out->PutVarint(g.size());
  for (uint64_t r = 0; r < g.size(); ++r) {
    out->PutU64(g.cts(r));
    out->PutU64(g.dts(r));
    for (size_t c = 0; c < g.num_columns(); ++c) {
      WriteValue(out, g.GetValue(r, c));
    }
  }
}

StatusOr<std::unique_ptr<ColumnTable>> ColumnTable::LoadFrom(Deserializer* in) {
  POLY_ASSIGN_OR_RETURN(std::string name, in->GetString());
  POLY_ASSIGN_OR_RETURN(uint64_t ncols, in->GetVarint());
  Schema schema;
  for (uint64_t c = 0; c < ncols; ++c) {
    ColumnDef def;
    POLY_ASSIGN_OR_RETURN(def.name, in->GetString());
    POLY_ASSIGN_OR_RETURN(uint8_t type, in->GetU8());
    def.type = static_cast<DataType>(type);
    POLY_ASSIGN_OR_RETURN(uint8_t nullable, in->GetU8());
    def.nullable = nullable != 0;
    POLY_ASSIGN_OR_RETURN(uint8_t gko, in->GetU8());
    def.generated_key_order = gko != 0;
    schema.AddColumn(std::move(def));
  }
  auto table = std::make_unique<ColumnTable>(std::move(name), std::move(schema));
  POLY_ASSIGN_OR_RETURN(uint64_t nrows, in->GetVarint());
  for (uint64_t r = 0; r < nrows; ++r) {
    POLY_ASSIGN_OR_RETURN(uint64_t cts, in->GetU64());
    POLY_ASSIGN_OR_RETURN(uint64_t dts, in->GetU64());
    Row row;
    row.reserve(ncols);
    for (uint64_t c = 0; c < ncols; ++c) {
      POLY_ASSIGN_OR_RETURN(Value v, ReadValue(in));
      row.push_back(std::move(v));
    }
    POLY_ASSIGN_OR_RETURN(uint64_t rid, table->AppendVersion(row, cts));
    if (dts != kNoStamp) table->ResolveDeleteStamp(rid, dts);
  }
  return table;
}

}  // namespace poly
