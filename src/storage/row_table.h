#ifndef POLY_STORAGE_ROW_TABLE_H_
#define POLY_STORAGE_ROW_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/chunked_vector.h"
#include "storage/epoch_gc.h"
#include "storage/mvcc.h"
#include "storage/version_store.h"
#include "types/schema.h"

namespace poly {

/// Row-oriented table with the same MVCC protocol as ColumnTable. This is
/// the baseline for experiments E2/E3: the paper's §II-A claim is that one
/// column store can carry *both* workloads that traditionally needed a row
/// OLTP store plus a replicated column OLAP store.
///
/// Thread model mirrors ColumnTable: writers caller-serialized; ALL reads —
/// stamps and row values — are latch-free against writers (DESIGN.md
/// §12.5): rows live in a ChunkedVector whose chunks never move once
/// published, stamps and rows share one EpochGC, and the unified ReadGuard
/// pins once for both. The writer stores the row before appending the
/// version, so the stamp watermark bounds fully-written rows. The guard is
/// the one read API: a scan or lookup takes one, hoisted out of its loop.
class RowTable {
 public:
  RowTable(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// The unified guard: one pin, a stamp snapshot, and — taken after it, so
  /// every stamped row is covered — a row snapshot. Immutable; shareable
  /// across threads. A row reference stays valid for the table's lifetime
  /// (row chunks are never freed before the destructor).
  class ReadGuard {
   public:
    explicit ReadGuard(const RowTable* t) : gc_(&t->gc_), slot_(gc_->Pin()) {
      stamps_ = t->versions_.SnapUnderPin();
      rows_ = t->rows_.Snap();
    }
    ~ReadGuard() { gc_->Unpin(slot_); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    uint64_t size() const { return stamps_.size(); }
    uint64_t cts(uint64_t row) const { return stamps_.cts(row); }
    uint64_t dts(uint64_t row) const { return stamps_.dts(row); }
    const Row& row(uint64_t r) const { return rows_[r]; }
    Value GetValue(uint64_t r, size_t col) const { return rows_[r][col]; }

    template <typename F>
    void ScanVisible(const ReadView& view, F&& fn) const {
      stamps_.ScanVisibleRange(view, 0, stamps_.size(), std::forward<F>(fn));
    }
    uint64_t CountVisible(const ReadView& view) const {
      return stamps_.CountVisible(view);
    }

   private:
    const EpochGC* gc_;
    int slot_;
    VersionStore::Snapshot stamps_;
    ChunkedVector<Row>::Snapshot rows_;
  };

  ReadGuard Read() const { return ReadGuard(this); }

  StatusOr<uint64_t> AppendVersion(const Row& values, uint64_t cts_stamp);
  Status SetDeleteStamp(uint64_t row, uint64_t stamp);
  void ResolveCreateStamp(uint64_t row, uint64_t commit_ts) {
    versions_.WriterStoreCts(row, commit_ts);
  }
  void ResolveDeleteStamp(uint64_t row, uint64_t commit_ts) {
    versions_.WriterStoreDts(row, commit_ts);
  }
  void ClearDeleteStamp(uint64_t row) { versions_.WriterStoreDts(row, kNoStamp); }

  /// Writer-side stamp reads (the caller holds the write latch).
  uint64_t WriterLoadCts(uint64_t row) const { return versions_.WriterLoadCts(row); }
  uint64_t WriterLoadDts(uint64_t row) const { return versions_.WriterLoadDts(row); }

  size_t MemoryBytes() const;

 private:
  std::string name_;
  Schema schema_;
  // gc_ first: the version store and row storage both retire into it; their
  // destructors never call back into it.
  EpochGC gc_;
  VersionStore versions_{&gc_};
  ChunkedVector<Row> rows_{&gc_, 256};
};

}  // namespace poly

#endif  // POLY_STORAGE_ROW_TABLE_H_
