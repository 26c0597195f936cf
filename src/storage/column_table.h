#ifndef POLY_STORAGE_COLUMN_TABLE_H_
#define POLY_STORAGE_COLUMN_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/serializer.h"
#include "common/status.h"
#include "resource/memory_budget.h"
#include "storage/column.h"
#include "storage/epoch_gc.h"
#include "storage/mvcc.h"
#include "storage/version_store.h"
#include "types/schema.h"

namespace poly {

/// Aggregate result of merging every column of a table.
struct TableMergeStats {
  uint64_t rows_moved = 0;
  uint64_t columns_fast_path = 0;
  uint64_t columns_general_path = 0;
  uint64_t ids_reencoded = 0;
};

/// A main-memory column-store table (§II-A): one Column per schema column
/// plus a reader-safe MVCC version store (DESIGN.md §12). Row versions are
/// append-only; an UPDATE is a delete-stamp on the old version plus a new
/// version.
///
/// Thread model: writers must be serialized by the caller (the
/// TransactionManager holds a table write latch). ALL reads — stamps AND
/// values — are latch-free and safe against concurrent AppendVersion,
/// AddColumn, Merge, and Vacuum (DESIGN.md §12.5): the schema, column list,
/// and version store hang off one atomically published TableState, values
/// live in chunked storage that never moves published elements, and a
/// unified ReadGuard pins the table's EpochGC once so nothing it snapshots
/// is freed underneath it. AddColumn/Vacuum republish a fresh TableState
/// and retire the old one; a pinned reader keeps its generation. The guard
/// is the one read API: a scan or lookup takes one, hoisted out of its loop.
class ColumnTable {
 public:
  ColumnTable(std::string name, Schema schema, bool compress_main = true);
  ~ColumnTable();
  ColumnTable(const ColumnTable&) = delete;
  ColumnTable& operator=(const ColumnTable&) = delete;

 private:
  /// Everything a reader needs, behind ONE atomic root: a reader that loads
  /// the state under a pin gets a schema, column list, and version store
  /// that belong together. Columns and the version store are shared_ptr so
  /// successive generations can share them (AddColumn keeps both; Vacuum
  /// replaces both — which is exactly why they must travel together: a
  /// post-vacuum version watermark must never be paired with pre-vacuum,
  /// differently-numbered values).
  struct TableState {
    Schema schema;
    std::vector<std::shared_ptr<Column>> cols;
    std::shared_ptr<VersionStore> versions;
    uint64_t vacuums = 0;  // renumbering Vacuums behind this generation
  };

 public:
  const std::string& name() const { return name_; }
  /// Writer-consistent schema view (stable reference; the Schema object a
  /// reader should use together with row data comes from ReadGuard).
  const Schema& schema() const {
    return state_.load(std::memory_order_acquire)->schema;
  }

  /// The unified read guard (DESIGN.md §12.5): ONE epoch pin covering the
  /// table state, the version-stamp snapshot, and a value snapshot of every
  /// column. Immutable after construction — a single guard may be shared by
  /// all threads of a morsel fan-out. Order matters inside: stamps are
  /// snapshotted BEFORE column readers, so the row bound never exceeds any
  /// column's published values (the writer appends values first, then the
  /// version).
  class ReadGuard {
   public:
    explicit ReadGuard(const ColumnTable* t) : gc_(&t->gc_), slot_(gc_->Pin()) {
      state_ = t->state_.load(std::memory_order_seq_cst);
      stamps_ = state_->versions->SnapUnderPin();
      readers_.reserve(state_->cols.size());
      for (const auto& c : state_->cols) readers_.emplace_back(c.get());
    }
    ~ReadGuard() { gc_->Unpin(slot_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// Number of row versions this guard may read.
    uint64_t size() const { return stamps_.size(); }
    uint64_t cts(uint64_t row) const { return stamps_.cts(row); }
    uint64_t dts(uint64_t row) const { return stamps_.dts(row); }

    const Schema& schema() const { return state_->schema; }
    size_t num_columns() const { return readers_.size(); }
    /// How many Vacuums have renumbered the rows this guard reads. Row ids
    /// taken under a guard with another count name other rows.
    uint64_t vacuum_count() const { return state_->vacuums; }
    const Column::Reader& col(size_t c) const { return readers_[c]; }

    Value GetValue(uint64_t row, size_t c) const { return readers_[c].Get(row); }
    Row GetRow(uint64_t row) const {
      Row out;
      out.reserve(readers_.size());
      for (const auto& r : readers_) out.push_back(r.Get(row));
      return out;
    }

    /// Invokes fn(row_id) for every version in [begin, end) visible in
    /// `view`, in ascending row order; `end` clamps to the watermark. Morsels
    /// over disjoint ranges cover exactly the rows a full ScanVisible would.
    template <typename F>
    void ScanVisibleRange(const ReadView& view, uint64_t begin, uint64_t end,
                          F&& fn) const {
      stamps_.ScanVisibleRange(view, begin, end, std::forward<F>(fn));
    }
    template <typename F>
    void ScanVisible(const ReadView& view, F&& fn) const {
      stamps_.ScanVisibleRange(view, 0, stamps_.size(), std::forward<F>(fn));
    }
    /// Number of versions visible in `view`.
    uint64_t CountVisible(const ReadView& view) const {
      return stamps_.CountVisible(view);
    }

   private:
    const EpochGC* gc_;
    int slot_;
    const TableState* state_;
    VersionStore::Snapshot stamps_;
    std::vector<Column::Reader> readers_;
  };

  ReadGuard Read() const { return ReadGuard(this); }

  /// Appends a new row version stamped with `cts_stamp` (an in-flight txn
  /// stamp or, for bulk loads, a committed timestamp). Returns the row ID.
  /// Row width must match the schema.
  StatusOr<uint64_t> AppendVersion(const Row& values, uint64_t cts_stamp);

  /// Marks a row version deleted with `stamp`. Fails with Aborted if the
  /// version already carries any delete stamp (first-writer-wins conflict).
  Status SetDeleteStamp(uint64_t row, uint64_t stamp);

  /// Commit/abort support: rewrite an in-flight stamp.
  void ResolveCreateStamp(uint64_t row, uint64_t commit_ts);
  void ResolveDeleteStamp(uint64_t row, uint64_t commit_ts);
  void ClearDeleteStamp(uint64_t row);

  /// Writer-side stamp reads: the caller holds the write latch, so no pin is
  /// needed and the stamps cannot change underneath it. Readers use a
  /// ReadGuard.
  uint64_t WriterLoadCts(uint64_t row) const;
  uint64_t WriterLoadDts(uint64_t row) const;

  /// Writer-side column access, for footprint introspection (MemoryBytes)
  /// and quiesced callers. Values are read through Read().col().
  const Column& column(size_t col) const {
    return *state_.load(std::memory_order_acquire)->cols[col];
  }

  /// Appends a new column; existing row versions read NULL in it. This is
  /// the §II-H flexible-table mechanism: "metadata about unknown columns
  /// are automatically created as soon as records with values for new
  /// columns are inserted". Publishes a fresh TableState sharing the
  /// existing columns and version store, so an in-flight scan keeps its
  /// pinned column list and is never invalidated.
  Status AddColumn(ColumnDef def);

  /// Merges every column's delta into its main part. Columns flagged
  /// generated_key_order in the schema attempt the append fast path.
  /// Caller must serialize against writers; concurrent readers are safe
  /// (each column republishes its state atomically, and merge preserves
  /// row numbering).
  TableMergeStats Merge();

  /// Garbage-collects row versions that are invisible to every snapshot at
  /// or after `watermark` (the TransactionManager's OldestActiveSnapshot):
  /// versions with a committed delete stamp <= watermark. Returns the number
  /// of versions removed. WARNING: surviving rows are renumbered — external
  /// row IDs (indexes, graph views) must be rebuilt. Caller must guarantee
  /// no concurrent writers; concurrent readers (stamps AND values) are safe:
  /// the renumbered rows live in a fresh TableState published atomically,
  /// and the old generation is epoch-retired, never freed under a live
  /// guard (DESIGN.md §12.4/§12.5).
  uint64_t Vacuum(uint64_t watermark);

  /// Bytes across all columns plus MVCC storage. Pins, and reads only
  /// published state, so it may run beside writers and merges.
  size_t MemoryBytes() const;

  /// Binds this table's footprint to a memory-budget node (normally the
  /// governor's storage node). Charges the current MemoryBytes()
  /// immediately — adoption after a tier page-in charges the paged-in
  /// bytes — then every AppendVersion force-charges a per-row estimate, and
  /// the destructor releases the running total. Call once, before
  /// concurrent traffic; the node must outlive the table.
  void BindMemoryBudget(resource::BudgetNode* node);
  resource::BudgetNode* memory_budget() const {
    return budget_.load(std::memory_order_acquire);
  }

  /// Serializes schema + all row versions with stamps (for the extended
  /// storage tier, DFS export, and recovery snapshots).
  void SaveTo(Serializer* out) const;
  static StatusOr<std::unique_ptr<ColumnTable>> LoadFrom(Deserializer* in);

  // ---- reclamation introspection (tests) ---------------------------------
  size_t retired_count() const { return gc_.retired_count(); }
  size_t ReclaimRetired() { return gc_.ReclaimExpired(); }

 private:
  std::string name_;
  bool compress_main_;
  // gc_ declared before state_: retired generations are freed by gc_'s
  // destructor, after the explicit teardown of the current state in
  // ~ColumnTable; no free_fn calls back into the gc.
  EpochGC gc_;
  std::atomic<TableState*> state_;
  // Budget accounting (DESIGN.md §13.1): the node is written once at bind
  // time; budget_charged_ tracks what this table owes so the destructor
  // can release exactly that (MemoryBytes() drifts with vacuum/compress).
  std::atomic<resource::BudgetNode*> budget_{nullptr};
  std::atomic<uint64_t> budget_charged_{0};
};

}  // namespace poly

#endif  // POLY_STORAGE_COLUMN_TABLE_H_
