#include "storage/version_store.h"

#include <algorithm>

namespace poly {

namespace {
uint64_t ShiftFor(uint64_t pow2) {
  uint64_t s = 0;
  while ((1ull << s) < pow2) ++s;
  return s;
}
}  // namespace

VersionStore::VersionStore(uint64_t chunk_rows, EpochGC* gc)
    : chunk_rows_(chunk_rows),
      chunk_shift_(ShiftFor(chunk_rows)),
      chunk_mask_(chunk_rows - 1),
      owned_gc_(gc == nullptr ? std::make_unique<EpochGC>() : nullptr),
      gc_(gc == nullptr ? owned_gc_.get() : gc),
      dir_(new Directory(kInitialDirectoryChunks)) {}

VersionStore::~VersionStore() {
  // Contract: no live readers at destruction. Entries this store retired
  // are freed by the gc (the owned one's destructor runs right after this,
  // a shared one when its table tears down); the current directory and its
  // chunks are freed here.
  Directory* dir = dir_.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < dir->capacity; ++i) {
    delete[] dir->chunks[i].load(std::memory_order_relaxed);
  }
  delete dir;
}

uint64_t VersionStore::Append(uint64_t cts, uint64_t dts) {
  uint64_t row = size_;
  uint64_t ci = row >> chunk_shift_;
  Directory* dir = dir_.load(std::memory_order_relaxed);
  if (ci >= dir->capacity) dir = Grow(dir);
  Stamp* chunk = dir->chunks[ci].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Stamp[chunk_rows_];
    dir->chunks[ci].store(chunk, std::memory_order_release);
    num_chunks_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t off = row & chunk_mask_;
  chunk[off].cts.store(cts, std::memory_order_relaxed);
  chunk[off].dts.store(dts, std::memory_order_relaxed);
  ++size_;
  // The publish: a reader that acquires the new watermark observes the
  // chunk pointer, both stamp stores above, AND every value-chunk store the
  // writer sequenced before this call (the table appends values first, then
  // the version — see DESIGN.md §12.5).
  dir->watermark.store(size_, std::memory_order_release);
  return row;
}

VersionStore::Directory* VersionStore::Grow(Directory* old) {
  auto* bigger = new Directory(old->capacity * 2);
  for (uint64_t i = 0; i < old->capacity; ++i) {
    bigger->chunks[i].store(old->chunks[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  }
  bigger->watermark.store(size_, std::memory_order_relaxed);
  // seq_cst publish: pairs with the reader's pin + directory load.
  dir_.store(bigger, std::memory_order_seq_cst);
  // Only the pointer array is retired — the chunks are shared with the new
  // directory and live on.
  gc_->Retire([old] { delete old; });
  gc_->ReclaimExpired();
  return bigger;
}

void VersionStore::WriterStoreCts(uint64_t row, uint64_t v) {
  Directory* dir = dir_.load(std::memory_order_relaxed);
  dir->chunks[row >> chunk_shift_]
      .load(std::memory_order_relaxed)[row & chunk_mask_]
      .cts.store(v, std::memory_order_relaxed);
}

void VersionStore::WriterStoreDts(uint64_t row, uint64_t v) {
  Directory* dir = dir_.load(std::memory_order_relaxed);
  dir->chunks[row >> chunk_shift_]
      .load(std::memory_order_relaxed)[row & chunk_mask_]
      .dts.store(v, std::memory_order_relaxed);
}

uint64_t VersionStore::WriterLoadCts(uint64_t row) const {
  Directory* dir = dir_.load(std::memory_order_relaxed);
  return dir->chunks[row >> chunk_shift_]
      .load(std::memory_order_relaxed)[row & chunk_mask_]
      .cts.load(std::memory_order_relaxed);
}

uint64_t VersionStore::WriterLoadDts(uint64_t row) const {
  Directory* dir = dir_.load(std::memory_order_relaxed);
  return dir->chunks[row >> chunk_shift_]
      .load(std::memory_order_relaxed)[row & chunk_mask_]
      .dts.load(std::memory_order_relaxed);
}

void VersionStore::Rebuild(const std::vector<std::pair<uint64_t, uint64_t>>& stamps) {
  uint64_t n = stamps.size();
  uint64_t chunks_needed = (n + chunk_rows_ - 1) >> chunk_shift_;
  uint64_t cap = kInitialDirectoryChunks;
  while (cap < chunks_needed) cap *= 2;
  auto* fresh = new Directory(cap);
  for (uint64_t ci = 0; ci < chunks_needed; ++ci) {
    Stamp* chunk = new Stamp[chunk_rows_];
    uint64_t base = ci << chunk_shift_;
    uint64_t limit = std::min(n - base, chunk_rows_);
    for (uint64_t off = 0; off < limit; ++off) {
      chunk[off].cts.store(stamps[base + off].first, std::memory_order_relaxed);
      chunk[off].dts.store(stamps[base + off].second, std::memory_order_relaxed);
    }
    fresh->chunks[ci].store(chunk, std::memory_order_relaxed);
  }
  fresh->watermark.store(n, std::memory_order_relaxed);

  Directory* old = dir_.load(std::memory_order_relaxed);
  dir_.store(fresh, std::memory_order_seq_cst);
  size_ = n;
  num_chunks_.store(chunks_needed, std::memory_order_relaxed);

  std::vector<Stamp*> old_chunks;
  for (uint64_t i = 0; i < old->capacity; ++i) {
    Stamp* c = old->chunks[i].load(std::memory_order_relaxed);
    if (c != nullptr) old_chunks.push_back(c);
  }
  gc_->Retire([old, old_chunks = std::move(old_chunks)] {
    for (Stamp* c : old_chunks) delete[] c;
    delete old;
  });
  gc_->ReclaimExpired();
}

size_t VersionStore::ReclaimExpired() { return gc_->ReclaimExpired(); }

size_t VersionStore::retired_count() const { return gc_->retired_count(); }

uint64_t VersionStore::directory_capacity() const {
  EpochPin pin(gc_);
  return dir_.load(std::memory_order_seq_cst)->capacity;
}

size_t VersionStore::MemoryBytes() const {
  return directory_capacity() * sizeof(std::atomic<Stamp*>) +
         num_chunks_.load(std::memory_order_relaxed) * chunk_rows_ * sizeof(Stamp);
}

}  // namespace poly
