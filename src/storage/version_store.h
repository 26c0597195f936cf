#ifndef POLY_STORAGE_VERSION_STORE_H_
#define POLY_STORAGE_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/epoch_gc.h"
#include "storage/mvcc.h"

namespace poly {

/// Reader-safe MVCC version-stamp storage (DESIGN.md §12).
///
/// Replaces the growable cts/dts vectors that made latch-free readers race
/// against writer growth: stamps live in preallocated fixed-size chunks of
/// atomics that never move once published, a chunk *directory* (an array of
/// atomic chunk pointers) is republished RCU-style when it fills, and the
/// number of fully-written rows is an atomically published *watermark* that
/// readers bound their scans by. Directories and chunks retired by growth,
/// Vacuum, or Rebuild are reclaimed with an epoch scheme (EpochGC): a reader
/// pins an epoch slot for as long as it reads a Snapshot, and retired memory
/// is freed only once every pinned epoch has moved past the retirement
/// epoch — so reclamation never frees a chunk a reader still holds.
///
/// The epoch machinery lives in EpochGC and may be *shared*: a table passes
/// its own gc so one pin covers stamps AND value chunks (DESIGN.md §12.5);
/// standalone VersionStores (unit tests) default to an internally owned gc.
///
/// Thread model:
///  - any number of concurrent readers, latch-free: each pins the gc and
///    reads through a Snapshot; a reader never takes a mutex;
///  - exactly one logical writer at a time (Append / WriterStore* / Rebuild);
///    callers serialize writers externally (the TransactionManager's write
///    latch, or single-threaded load/merge phases);
///  - readers may overlap *any* writer operation, including Rebuild.
class VersionStore {
 public:
  static constexpr uint64_t kDefaultChunkRows = 1024;  // power of two
  static constexpr uint64_t kIdleEpoch = EpochGC::kIdleEpoch;
  static constexpr int kReaderSlots = EpochGC::kReaderSlots;
  static constexpr uint64_t kInitialDirectoryChunks = 4;

  /// `chunk_rows` must be a power of two; small values are for tests that
  /// want to cross chunk and directory boundaries cheaply. A null `gc`
  /// means "own one" (standalone use); a table passes its shared gc.
  explicit VersionStore(uint64_t chunk_rows = kDefaultChunkRows,
                        EpochGC* gc = nullptr);
  ~VersionStore();
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

 private:
  /// One row version's stamps. Atomics so the commit-time in-place rewrite
  /// (txn stamp -> commit ts) is race-free against readers.
  struct Stamp {
    std::atomic<uint64_t> cts{0};
    std::atomic<uint64_t> dts{0};
  };

  /// The chunk directory. `chunks[i]` points at a preallocated array of
  /// `chunk_rows` Stamps; `watermark` is the number of fully-written rows
  /// *under this directory*. The watermark lives inside the directory so a
  /// reader always pairs a directory with a watermark that is consistent
  /// with it (a reader holding a just-replaced directory sees its frozen
  /// watermark, never the successor's larger one).
  struct Directory {
    explicit Directory(uint64_t cap)
        : capacity(cap), chunks(new std::atomic<Stamp*>[cap]) {
      for (uint64_t i = 0; i < cap; ++i)
        chunks[i].store(nullptr, std::memory_order_relaxed);
    }
    const uint64_t capacity;  // chunk slots
    std::atomic<uint64_t> watermark{0};
    std::unique_ptr<std::atomic<Stamp*>[]> chunks;
  };

 public:
  /// The read API: a stamp view of directory + watermark. The caller must
  /// hold a pin on the associated EpochGC for as long as the Snapshot is
  /// used (a table's ReadGuard pins once and snapshots stamps and every
  /// value structure under it). Copyable, no mutable cache — safe to share
  /// across the morsel fan-out.
  class Snapshot {
   public:
    Snapshot() = default;

    uint64_t size() const { return size_; }
    uint64_t cts(uint64_t row) const {
      return StampAt(row)->cts.load(std::memory_order_relaxed);
    }
    uint64_t dts(uint64_t row) const {
      return StampAt(row)->dts.load(std::memory_order_relaxed);
    }

    /// Invokes fn(row) for every version in [begin, end) visible in `view`,
    /// in ascending row order; `end` clamps to the watermark. This is the
    /// one loop that tests stamps against a ReadView: both table guards
    /// scan and count through it.
    template <typename F>
    void ScanVisibleRange(const ReadView& view, uint64_t begin, uint64_t end,
                          F&& fn) const {
      if (end > size_) end = size_;
      for (uint64_t r = begin; r < end; ++r) {
        if (view.RowVisible(cts(r), dts(r))) fn(r);
      }
    }
    uint64_t CountVisible(const ReadView& view) const {
      uint64_t n = 0;
      ScanVisibleRange(view, 0, size_, [&](uint64_t) { ++n; });
      return n;
    }

   private:
    friend class VersionStore;
    Snapshot(const Directory* dir, uint64_t shift, uint64_t mask)
        : dir_(dir),
          size_(dir->watermark.load(std::memory_order_acquire)),
          shift_(shift),
          mask_(mask) {}

    const Stamp* StampAt(uint64_t row) const {
      return dir_->chunks[row >> shift_].load(std::memory_order_acquire) +
             (row & mask_);
    }

    const Directory* dir_ = nullptr;
    uint64_t size_ = 0;
    uint64_t shift_ = 0;
    uint64_t mask_ = 0;
  };

  /// Caller must already hold a pin on the shared gc (a table's ReadGuard
  /// does). The seq_cst load pairs with the seq_cst directory publish and
  /// the reclaimer's slot scan (DESIGN.md §12.4): a reader whose pin the
  /// reclaimer did not observe is guaranteed to load the *new* directory.
  Snapshot SnapUnderPin() const {
    return Snapshot(dir_.load(std::memory_order_seq_cst), chunk_shift_,
                    chunk_mask_);
  }

  // ---- writer API: callers must serialize externally ---------------------

  /// Appends one version and publishes the watermark (release) so readers
  /// that observe the new size also observe the stamps. Returns the row id.
  uint64_t Append(uint64_t cts, uint64_t dts);

  /// In-place stamp rewrites (commit/abort resolution, recovery). Visibility
  /// to snapshot readers piggybacks on the TransactionManager's clock
  /// publish; see DESIGN.md §12.2.
  void WriterStoreCts(uint64_t row, uint64_t v);
  void WriterStoreDts(uint64_t row, uint64_t v);
  uint64_t WriterLoadCts(uint64_t row) const;
  uint64_t WriterLoadDts(uint64_t row) const;
  /// Row count as the writer knows it (== the published watermark; no pin
  /// needed because the caller holds the write latch).
  uint64_t WriterSize() const { return size_; }

  /// Replaces the whole store with `stamps` (Vacuum's renumbering). The old
  /// directory and all its chunks are retired, not freed: a concurrent
  /// reader keeps its Snapshot of the pre-rebuild history until it unpins.
  void Rebuild(const std::vector<std::pair<uint64_t, uint64_t>>& stamps);

  /// Frees retired directories/chunks whose retirement epoch every pinned
  /// reader has moved past (forwards to the shared EpochGC — with a shared
  /// gc this reclaims table-wide). Returns the number of entries freed.
  size_t ReclaimExpired();

  // ---- introspection -----------------------------------------------------
  /// Pending entries on the shared gc (table-wide when the gc is shared).
  size_t retired_count() const;
  uint64_t num_chunks() const { return num_chunks_.load(std::memory_order_relaxed); }
  uint64_t directory_capacity() const;
  uint64_t chunk_rows() const { return chunk_rows_; }
  size_t MemoryBytes() const;

 private:
  Directory* Grow(Directory* old);

  uint64_t chunk_rows_;
  uint64_t chunk_shift_;
  uint64_t chunk_mask_;

  // Declared before dir_ so an owned gc outlives the directory teardown; no
  // free_fn ever calls back into the gc, so destruction order is otherwise
  // free.
  std::unique_ptr<EpochGC> owned_gc_;
  EpochGC* gc_;  // never null

  std::atomic<Directory*> dir_;
  uint64_t size_ = 0;  // writer-private logical size (== published watermark)
  std::atomic<uint64_t> num_chunks_{0};
};

}  // namespace poly

#endif  // POLY_STORAGE_VERSION_STORE_H_
