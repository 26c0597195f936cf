#ifndef POLY_STORAGE_CHUNKED_VECTOR_H_
#define POLY_STORAGE_CHUNKED_VECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/epoch_gc.h"

namespace poly {

/// Reader-safe append-only chunked storage (DESIGN.md §12.1): the one chunk
/// directory of the storage layer. Version stamps (VersionStore), column
/// delta ids, delta-dictionary values and row-table rows all live in one.
/// Elements live in preallocated fixed-size chunks that never move once
/// published; a chunk *directory* (array of atomic chunk pointers) is
/// republished RCU-style when it fills, and the count of fully-written
/// elements is a watermark stored INSIDE the directory so a reader always
/// pairs a directory with a consistent size. Chunks are never retired by
/// growth (only the pointer array is, into the table's EpochGC), so a
/// `const T&` obtained under a pin stays valid for the lifetime of the
/// ChunkedVector itself.
///
/// Thread model:
///  - any number of concurrent readers, each reading through a Snapshot
///    taken under a pin on `gc`;
///  - exactly one logical writer at a time (Append); callers serialize
///    writers externally.
template <typename T>
class ChunkedVector {
 public:
  static constexpr uint64_t kInitialDirectoryChunks = 4;

  /// `gc` is the owning table's EpochGC; `chunk_rows` must be a power of
  /// two.
  explicit ChunkedVector(EpochGC* gc, uint64_t chunk_rows = 256)
      : gc_(gc),
        chunk_rows_(chunk_rows),
        chunk_shift_(ShiftFor(chunk_rows)),
        chunk_mask_(chunk_rows - 1),
        dir_(new Directory(kInitialDirectoryChunks)) {}

  ~ChunkedVector() {
    // Contract: no live readers. Retired directories were handed to the gc;
    // only the current one and the chunks — which are shared across all
    // directory generations and freed exactly once, here — remain.
    Directory* dir = dir_.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < dir->capacity; ++i) {
      delete[] dir->chunks[i].load(std::memory_order_relaxed);
    }
    delete dir;
  }
  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

 private:
  struct Directory {
    explicit Directory(uint64_t cap)
        : capacity(cap), chunks(new std::atomic<T*>[cap]) {
      for (uint64_t i = 0; i < cap; ++i)
        chunks[i].store(nullptr, std::memory_order_relaxed);
    }
    const uint64_t capacity;  // chunk slots
    std::atomic<uint64_t> watermark{0};
    std::unique_ptr<std::atomic<T*>[]> chunks;
  };

 public:
  /// The read API: an immutable view taken under a pin, directory pointer
  /// (seq_cst, pairs with the writer's seq_cst republish) + that
  /// directory's watermark. Copyable and free of mutable cache state, so
  /// one Snapshot may be shared by many threads (the morsel fan-out reads
  /// through a single table guard). An element reference stays valid for
  /// the lifetime of the ChunkedVector: chunks are never freed before the
  /// destructor.
  class Snapshot {
   public:
    Snapshot() = default;

    uint64_t size() const { return size_; }
    const T& operator[](uint64_t i) const {
      return dir_->chunks[i >> shift_].load(std::memory_order_acquire)
                 [i & mask_];
    }

   private:
    friend class ChunkedVector;
    Snapshot(const Directory* dir, uint64_t shift, uint64_t mask)
        : dir_(dir),
          size_(dir->watermark.load(std::memory_order_acquire)),
          shift_(shift),
          mask_(mask) {}

    const Directory* dir_ = nullptr;
    uint64_t size_ = 0;
    uint64_t shift_ = 0;
    uint64_t mask_ = 0;
  };

  /// Caller must hold a pin on the associated EpochGC (or be the writer).
  Snapshot Snap() const {
    return Snapshot(dir_.load(std::memory_order_seq_cst), chunk_shift_,
                    chunk_mask_);
  }

  // ---- writer API: callers must serialize externally ---------------------

  /// Appends one element and publishes the watermark (release) so a reader
  /// that observes the new size also observes the element store and any
  /// writer stores sequenced before this call. Returns the element's index.
  uint64_t Append(T v) {
    uint64_t i = size_;
    uint64_t ci = i >> chunk_shift_;
    Directory* dir = dir_.load(std::memory_order_relaxed);
    if (ci >= dir->capacity) dir = Grow(dir);
    T* chunk = dir->chunks[ci].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[chunk_rows_];
      dir->chunks[ci].store(chunk, std::memory_order_release);
      num_chunks_.fetch_add(1, std::memory_order_relaxed);
    }
    chunk[i & chunk_mask_] = std::move(v);
    ++size_;
    dir->watermark.store(size_, std::memory_order_release);
    return i;
  }

  /// Writer-side accessors (no pin needed: the caller holds the write
  /// latch, so no growth can race these).
  uint64_t WriterSize() const { return size_; }
  const T& WriterAt(uint64_t i) const {
    Directory* dir = dir_.load(std::memory_order_relaxed);
    return dir->chunks[i >> chunk_shift_].load(std::memory_order_relaxed)
               [i & chunk_mask_];
  }

  // ---- introspection -----------------------------------------------------
  uint64_t num_chunks() const {
    return num_chunks_.load(std::memory_order_relaxed);
  }
  uint64_t chunk_rows() const { return chunk_rows_; }
  uint64_t directory_capacity() const {
    return dir_.load(std::memory_order_seq_cst)->capacity;
  }
  /// Container overhead only; element payloads (e.g. strings inside Values)
  /// are the caller's to account for.
  size_t MemoryBytes() const {
    return directory_capacity() * sizeof(std::atomic<T*>) +
           num_chunks() * chunk_rows_ * sizeof(T);
  }

 private:
  static uint64_t ShiftFor(uint64_t pow2) {
    uint64_t s = 0;
    while ((1ull << s) < pow2) ++s;
    return s;
  }

  Directory* Grow(Directory* old) {
    auto* bigger = new Directory(old->capacity * 2);
    for (uint64_t i = 0; i < old->capacity; ++i) {
      bigger->chunks[i].store(old->chunks[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    }
    bigger->watermark.store(size_, std::memory_order_relaxed);
    // seq_cst publish: pairs with the reader's pin + directory load.
    dir_.store(bigger, std::memory_order_seq_cst);
    // Only the pointer array is retired — chunks are shared with the new
    // directory and live on until the destructor.
    gc_->Retire([old] { delete old; });
    gc_->ReclaimExpired();
    return bigger;
  }

  EpochGC* gc_;
  uint64_t chunk_rows_;
  uint64_t chunk_shift_;
  uint64_t chunk_mask_;

  std::atomic<Directory*> dir_;
  uint64_t size_ = 0;  // writer-private logical size (== published watermark)
  std::atomic<uint64_t> num_chunks_{0};
};

}  // namespace poly

#endif  // POLY_STORAGE_CHUNKED_VECTOR_H_
