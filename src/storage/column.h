#ifndef POLY_STORAGE_COLUMN_H_
#define POLY_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bitpack.h"
#include "storage/chunked_vector.h"
#include "storage/dictionary.h"
#include "types/value.h"

namespace poly {

/// Statistics about one delta→main merge of a single column, reported so
/// experiment E11 can compare the generated-key-order fast path with the
/// general re-encode path.
struct ColumnMergeStats {
  bool fast_path = false;       ///< dictionary appended, main IDs untouched
  uint64_t ids_reencoded = 0;   ///< how many existing main IDs were rewritten
  uint64_t dict_entries_moved = 0;
};

/// One column of a column-store table: an immutable, dictionary-compressed
/// main part plus a write-optimized delta part (§II-A, §III, [8]).
///
/// Physical layout:
///   main  = SortedDictionary + bit-packed value-ID vector
///   delta = DeltaDictionary (insertion order) + chunked value-ID vector
/// Row position r < main_size() reads from main, else from delta.
///
/// Reader safety (DESIGN.md §12.5): the whole layout hangs off one
/// atomically published State. Appends go to chunked delta storage that
/// never moves published elements; Merge builds a NEW State (fresh main,
/// empty delta) and republishes it RCU-style, retiring the old one through
/// the shared EpochGC — so a reader that pinned before the merge keeps a
/// fully consistent pre-merge column, and row ids mean the same thing in
/// both generations (merge preserves row order).
class Column {
 public:
  /// `compress_main`: false relaxes reference compression to 64-bit IDs,
  /// trading size for cheaper decoding — the §IV-A trade for SOE nodes.
  /// Only experiment E3 uses the relaxed mode; SOE nodes host compressed
  /// tables like every other table. `gc` is the owning table's EpochGC.
  explicit Column(EpochGC* gc, bool compress_main = true);
  ~Column();
  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

 private:
  struct State {
    State(EpochGC* gc, uint64_t delta_chunk_rows)
        : main_ids(1), delta_dict(gc, delta_chunk_rows),
          delta_ids(gc, delta_chunk_rows) {}
    SortedDictionary main_dict;
    BitPackedVector main_ids;
    DeltaDictionary delta_dict;
    ChunkedVector<uint64_t> delta_ids;
  };

 public:
  /// Appends a value to the delta; returns the global row position. Writer
  /// order matters: the dictionary value is published before the row id, so
  /// a reader that sees the id (bounded by its snapshot watermark) can
  /// resolve it.
  uint64_t Append(const Value& v);

  /// The read API: a consistent view of the column taken under an EpochGC
  /// pin (a table ReadGuard holds one). It holds the state pointer
  /// (seq_cst, pairs with Merge's republish), a delta row-id snapshot, and —
  /// taken after it — a delta dictionary snapshot covering every id the row
  /// snapshot can yield. No mutable cache: one Reader may be shared by all
  /// threads of a morsel fan-out.
  class Reader {
   public:
    Reader() = default;
    explicit Reader(const Column* c) {
      st_ = c->state_.load(std::memory_order_seq_cst);
      delta_ids_ = st_->delta_ids.Snap();
      delta_vals_ = st_->delta_dict.Snap();
      main_n_ = st_->main_ids.size();
    }

    uint64_t size() const { return main_n_ + delta_ids_.size(); }
    uint64_t main_size() const { return main_n_; }
    uint64_t delta_size() const { return delta_ids_.size(); }

    Value Get(uint64_t row) const {
      if (row < main_n_) return st_->main_dict.At(st_->main_ids.Get(row));
      return delta_vals_[delta_ids_[row - main_n_]];
    }

    const SortedDictionary& main_dictionary() const { return st_->main_dict; }
    uint64_t MainId(uint64_t row) const { return st_->main_ids.Get(row); }
    uint64_t DeltaId(uint64_t i) const { return delta_ids_[i]; }
    /// Number of delta-dictionary entries this snapshot can resolve.
    uint64_t delta_dict_size() const { return delta_vals_.size(); }
    const Value& DeltaDictValue(uint64_t id) const { return delta_vals_[id]; }
    void DecodeMainIds(uint64_t begin, uint64_t end, uint64_t* out) const {
      st_->main_ids.Decode(begin, end, out);
    }

   private:
    const State* st_ = nullptr;
    ChunkedVector<uint64_t>::Snapshot delta_ids_;
    ChunkedVector<Value>::Snapshot delta_vals_;
    uint64_t main_n_ = 0;
  };

  // ---- writer-side accessors ---------------------------------------------
  // For the writer only (ColumnTable::Merge and Vacuum hold the write
  // latch). Readers take a Reader under a pin instead.

  /// Value at global row position.
  Value Get(uint64_t row) const;
  uint64_t main_size() const;
  uint64_t delta_size() const;

  /// Merges delta into main by building and atomically publishing a fresh
  /// State (old one retired through the gc — a pinned reader keeps it).
  /// `hint_generated_order` declares the §III application knowledge that new
  /// keys sort after all existing ones; the merge verifies the hint and
  /// falls back to the general path if it does not hold.
  ColumnMergeStats Merge(bool hint_generated_order = false);

  /// Approximate heap bytes of dictionary + ID storage.
  size_t MemoryBytes() const;

 private:
  static constexpr uint64_t kDeltaChunkRows = 256;

  bool compress_main_;
  EpochGC* gc_;
  std::atomic<State*> state_;
};

}  // namespace poly

#endif  // POLY_STORAGE_COLUMN_H_
