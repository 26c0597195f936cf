#ifndef POLY_STORAGE_DICTIONARY_H_
#define POLY_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/chunked_vector.h"
#include "types/value.h"

namespace poly {

/// Sorted domain dictionary of a main-store column (§III): all distinct
/// values (distinct under Value::operator==) in Value::SortsBefore order;
/// the column itself stores bit-packed indexes ("value IDs") into this
/// dictionary. Sortedness makes range predicates a pair of binary searches
/// over value IDs.
///
/// A SortedDictionary is immutable once its owning column state is
/// published (merge builds a NEW state rather than mutating in place, see
/// DESIGN.md §12.5), so plain vectors are fine here.
class SortedDictionary {
 public:
  SortedDictionary() = default;
  /// Builds from values that are already sorted and distinct.
  explicit SortedDictionary(std::vector<Value> sorted_distinct);

  /// Value ID of the entry == `v`, if present (Double 3.0 is not Int 3).
  std::optional<uint64_t> Lookup(const Value& v) const;
  /// First value ID whose value is not < v under Value::operator< (may
  /// equal size()); a tie such as Int 3 / Double 3.0 counts as equal.
  uint64_t LowerBound(const Value& v) const;
  /// First value ID whose value is > v under Value::operator<.
  uint64_t UpperBound(const Value& v) const;

  const Value& At(uint64_t id) const { return values_[id]; }
  uint64_t size() const { return values_.size(); }
  const std::vector<Value>& values() const { return values_; }

  /// True if every value in `other_sorted` is strictly greater than our max.
  /// This is the §III "generated key order" merge fast path test: when it
  /// holds, the merged dictionary is simply this dictionary + the new values
  /// appended, and no existing value ID changes.
  bool AllGreaterThanMax(const std::vector<Value>& other_sorted) const;

  /// Appends values that are sorted and all greater than the current max.
  void AppendGreater(const std::vector<Value>& sorted_values);

  size_t MemoryBytes() const;

 private:
  std::vector<Value> values_;
};

/// Unsorted append dictionary of a delta-store column: first-come IDs with a
/// hash lookup, so inserts never shift existing IDs (writes stay cheap; the
/// merge pays the sorting cost instead, §III).
///
/// Values live in a ChunkedVector so readers may resolve any *published* ID
/// concurrently with writer inserts (DESIGN.md §12.5): the hash index stays
/// writer-private, but the id->value direction is reader-safe under an
/// EpochGC pin. Happens-before for a reader that learned an ID from a
/// published delta row chains through the row-id watermark: the writer
/// stores the dictionary value BEFORE appending the id, so the id publish
/// covers the value store.
class DeltaDictionary {
 public:
  /// A null `gc` means single-threaded standalone use (tests).
  explicit DeltaDictionary(EpochGC* gc = nullptr, uint64_t chunk_rows = 256)
      : values_(gc, chunk_rows) {}

  /// Returns the ID of v, inserting it if new. Writer-only.
  uint64_t GetOrAdd(const Value& v);
  /// Writer-only (walks the writer-private hash index).
  std::optional<uint64_t> Lookup(const Value& v) const;

  /// Safe for any published id under a pin; the reference stays valid for
  /// the dictionary's lifetime (chunks never move).
  const Value& At(uint64_t id) const { return values_.At(id); }
  /// Writer-side entry count.
  uint64_t size() const { return values_.WriterSize(); }

  /// Reader snapshot of the value store (take AFTER the row-id snapshot
  /// whose ids it must cover; see Column::Reader).
  ChunkedVector<Value>::Snapshot Snap() const { return values_.Snap(); }

  size_t MemoryBytes() const;

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  ChunkedVector<Value> values_;
  std::unordered_map<Value, uint64_t, ValueHash> index_;  // writer-private
};

}  // namespace poly

#endif  // POLY_STORAGE_DICTIONARY_H_
