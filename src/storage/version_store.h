#ifndef POLY_STORAGE_VERSION_STORE_H_
#define POLY_STORAGE_VERSION_STORE_H_

#include <atomic>
#include <cstdint>

#include "storage/chunked_vector.h"
#include "storage/epoch_gc.h"
#include "storage/mvcc.h"

namespace poly {

/// Reader-safe MVCC version-stamp storage (DESIGN.md §12): a ChunkedVector
/// of atomic (CTS, DTS) pairs. The chunk directory, its growth, the
/// watermark publish and epoch retirement are ChunkedVector's; this class
/// adds only what is specific to stamps — the writer's in-place rewrites of
/// a published pair (commit/abort resolution, delete stamps) and the one
/// loop that tests stamps against a ReadView.
///
/// Thread model is ChunkedVector's:
///  - any number of concurrent readers, latch-free: each pins the table's
///    EpochGC and reads through a Snapshot; a reader never takes a mutex;
///  - exactly one logical writer at a time (Append / WriterStore*);
///    callers serialize writers externally (the TransactionManager's write
///    latch, or single-threaded load/merge phases).
class VersionStore {
 public:
  static constexpr uint64_t kDefaultChunkRows = 1024;  // power of two

  /// `gc` is the table's EpochGC, shared with its value structures so one
  /// pin covers both. `chunk_rows` must be a power of two; small values are
  /// for tests that want to cross chunk and directory boundaries cheaply.
  explicit VersionStore(EpochGC* gc, uint64_t chunk_rows = kDefaultChunkRows)
      : stamps_(gc, chunk_rows) {}

 private:
  /// One row version's stamps. Atomics so the writer's in-place rewrite
  /// (txn stamp -> commit ts) is race-free against readers; `mutable`
  /// because that rewrite goes through ChunkedVector's const writer access.
  struct Stamp {
    Stamp() = default;
    Stamp(uint64_t c, uint64_t d) : cts(c), dts(d) {}
    /// Append's store into a slot no reader can see yet.
    Stamp& operator=(const Stamp& o) {
      cts.store(o.cts.load(std::memory_order_relaxed), std::memory_order_relaxed);
      dts.store(o.dts.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    mutable std::atomic<uint64_t> cts{0};
    mutable std::atomic<uint64_t> dts{0};
  };

 public:
  /// The read API: a stamp view of directory + watermark. The caller must
  /// hold a pin on the table's EpochGC for as long as the Snapshot is used
  /// (a table's ReadGuard pins once and snapshots stamps and every value
  /// structure under it). Copyable, no mutable cache — safe to share
  /// across the morsel fan-out.
  class Snapshot {
   public:
    Snapshot() = default;

    uint64_t size() const { return stamps_.size(); }
    uint64_t cts(uint64_t row) const {
      return stamps_[row].cts.load(std::memory_order_relaxed);
    }
    uint64_t dts(uint64_t row) const {
      return stamps_[row].dts.load(std::memory_order_relaxed);
    }

    /// Invokes fn(row) for every version in [begin, end) visible in `view`,
    /// in ascending row order; `end` clamps to the watermark. This is the
    /// one loop that tests stamps against a ReadView: both table guards
    /// scan and count through it. A row's pair costs one chunk-pointer load.
    template <typename F>
    void ScanVisibleRange(const ReadView& view, uint64_t begin, uint64_t end,
                          F&& fn) const {
      if (end > size()) end = size();
      for (uint64_t r = begin; r < end; ++r) {
        const Stamp& s = stamps_[r];
        if (view.RowVisible(s.cts.load(std::memory_order_relaxed),
                            s.dts.load(std::memory_order_relaxed))) {
          fn(r);
        }
      }
    }
    uint64_t CountVisible(const ReadView& view) const {
      uint64_t n = 0;
      ScanVisibleRange(view, 0, size(), [&](uint64_t) { ++n; });
      return n;
    }

   private:
    friend class VersionStore;
    explicit Snapshot(ChunkedVector<Stamp>::Snapshot stamps) : stamps_(stamps) {}

    ChunkedVector<Stamp>::Snapshot stamps_;
  };

  /// Caller must already hold a pin on the table's gc (a table's ReadGuard
  /// does). The directory load is seq_cst (DESIGN.md §12.4): a reader whose
  /// pin the reclaimer did not observe is guaranteed to load the *new*
  /// directory.
  Snapshot SnapUnderPin() const { return Snapshot(stamps_.Snap()); }

  // ---- writer API: callers must serialize externally ---------------------

  /// Appends one version and publishes the watermark (release): a reader
  /// that acquires the new size observes both stamps AND every value-chunk
  /// store the writer sequenced before this call (the table appends values
  /// first, then the version — DESIGN.md §12.5). Returns the row id.
  uint64_t Append(uint64_t cts, uint64_t dts) {
    return stamps_.Append(Stamp(cts, dts));
  }

  /// In-place stamp rewrites (commit/abort resolution, recovery). Visibility
  /// to snapshot readers piggybacks on the TransactionManager's clock
  /// publish; see DESIGN.md §12.2.
  void WriterStoreCts(uint64_t row, uint64_t v) {
    stamps_.WriterAt(row).cts.store(v, std::memory_order_relaxed);
  }
  void WriterStoreDts(uint64_t row, uint64_t v) {
    stamps_.WriterAt(row).dts.store(v, std::memory_order_relaxed);
  }
  uint64_t WriterLoadCts(uint64_t row) const {
    return stamps_.WriterAt(row).cts.load(std::memory_order_relaxed);
  }
  uint64_t WriterLoadDts(uint64_t row) const {
    return stamps_.WriterAt(row).dts.load(std::memory_order_relaxed);
  }
  /// Row count as the writer knows it (== the published watermark).
  uint64_t WriterSize() const { return stamps_.WriterSize(); }

  // ---- introspection (the caller pins or is the writer) ------------------
  uint64_t num_chunks() const { return stamps_.num_chunks(); }
  uint64_t directory_capacity() const { return stamps_.directory_capacity(); }
  size_t MemoryBytes() const { return stamps_.MemoryBytes(); }

 private:
  ChunkedVector<Stamp> stamps_;
};

}  // namespace poly

#endif  // POLY_STORAGE_VERSION_STORE_H_
