#include "storage/column.h"

#include <algorithm>

namespace poly {

Column::Column(bool compress_main, EpochGC* gc)
    : compress_main_(compress_main),
      owned_gc_(gc == nullptr ? std::make_unique<EpochGC>() : nullptr),
      gc_(gc == nullptr ? owned_gc_.get() : gc),
      state_(new State(gc_, kDeltaChunkRows)) {}

Column::~Column() {
  // Contract: no live Readers. States retired by Merge are freed by the gc
  // (the owned one's destructor runs right after this member teardown, a
  // shared one when its table tears down).
  delete state_.load(std::memory_order_relaxed);
}

uint64_t Column::Append(const Value& v) {
  State* st = state_.load(std::memory_order_relaxed);
  // Dictionary first: its value store is published (release) before the row
  // id below, so any reader whose snapshot includes the id resolves it.
  uint64_t id = st->delta_dict.GetOrAdd(v);
  st->delta_ids.Append(id);
  return st->main_ids.size() + st->delta_ids.WriterSize() - 1;
}

Value Column::Get(uint64_t row) const {
  const State* st = state_.load(std::memory_order_acquire);
  if (row < st->main_ids.size()) {
    return st->main_dict.At(st->main_ids.Get(row));
  }
  return st->delta_dict.At(st->delta_ids.WriterAt(row - st->main_ids.size()));
}

uint64_t Column::size() const {
  const State* st = state_.load(std::memory_order_acquire);
  return st->main_ids.size() + st->delta_ids.WriterSize();
}

uint64_t Column::main_size() const {
  return state_.load(std::memory_order_acquire)->main_ids.size();
}

uint64_t Column::delta_size() const {
  return state_.load(std::memory_order_acquire)->delta_ids.WriterSize();
}

const SortedDictionary& Column::main_dictionary() const {
  return state_.load(std::memory_order_acquire)->main_dict;
}

const DeltaDictionary& Column::delta_dictionary() const {
  return state_.load(std::memory_order_acquire)->delta_dict;
}

uint64_t Column::MainId(uint64_t row) const {
  return state_.load(std::memory_order_acquire)->main_ids.Get(row);
}

uint64_t Column::DeltaId(uint64_t i) const {
  return state_.load(std::memory_order_acquire)->delta_ids.WriterAt(i);
}

void Column::DecodeMainIds(uint64_t begin, uint64_t end, uint64_t* out) const {
  state_.load(std::memory_order_acquire)->main_ids.Decode(begin, end, out);
}

ColumnMergeStats Column::Merge(bool hint_generated_order) {
  ColumnMergeStats stats;
  State* st = state_.load(std::memory_order_relaxed);
  uint64_t delta_n = st->delta_ids.WriterSize();
  if (delta_n == 0 && st->delta_dict.size() == 0) return stats;

  // Sort the delta's distinct values and remember old-delta-ID -> rank.
  std::vector<uint64_t> order(st->delta_dict.size());
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    return st->delta_dict.At(a).SortsBefore(st->delta_dict.At(b));
  });
  std::vector<Value> sorted_delta_values;
  sorted_delta_values.reserve(order.size());
  // Old delta id -> position in sorted_delta_values.
  std::vector<uint64_t> delta_rank(order.size());
  for (uint64_t rank = 0; rank < order.size(); ++rank) {
    sorted_delta_values.push_back(st->delta_dict.At(order[rank]));
    delta_rank[order[rank]] = rank;
  }

  // Delta values already present in main must not be duplicated; compute,
  // for each sorted delta value, either its existing main ID or its slot in
  // the merged dictionary. Everything is assembled in a FRESH State — the
  // published one stays untouched until the single pointer swap below, so
  // pinned readers are never exposed to a half-merged column.
  bool disjoint_and_greater =
      hint_generated_order &&
      st->main_dict.AllGreaterThanMax(sorted_delta_values);

  auto* fresh = new State(gc_, kDeltaChunkRows);
  if (disjoint_and_greater) {
    // Fast path (§III / E11): append to the dictionary; existing main value
    // IDs stay valid, so only the (cheap) width check can force a repack.
    uint64_t old_dict_size = st->main_dict.size();
    fresh->main_dict = st->main_dict;
    fresh->main_dict.AppendGreater(sorted_delta_values);
    int needed_bits =
        BitsFor(fresh->main_dict.size() == 0 ? 0 : fresh->main_dict.size() - 1);
    int width = compress_main_ ? needed_bits : 64;
    fresh->main_ids =
        width != st->main_ids.bits() ? st->main_ids.Repack(width) : st->main_ids;
    for (uint64_t r = 0; r < delta_n; ++r) {
      fresh->main_ids.Append(old_dict_size + delta_rank[st->delta_ids.WriterAt(r)]);
    }
    stats.fast_path = true;
    stats.dict_entries_moved = sorted_delta_values.size();
  } else {
    // General path: two-way merge of old dictionary and sorted delta values,
    // then re-encode every existing main ID through the remap table. Values
    // that tie under operator< but are not == (Int 3, Double 3.0) stay two
    // entries, in SortsBefore order.
    const std::vector<Value>& old_values = st->main_dict.values();
    std::vector<Value> merged;
    merged.reserve(old_values.size() + sorted_delta_values.size());
    std::vector<uint64_t> old_remap(old_values.size());
    std::vector<uint64_t> delta_remap(sorted_delta_values.size());
    size_t i = 0, j = 0;
    while (i < old_values.size() || j < sorted_delta_values.size()) {
      bool take_old = j >= sorted_delta_values.size() ||
                      (i < old_values.size() &&
                       !sorted_delta_values[j].SortsBefore(old_values[i]));
      bool equal = take_old && j < sorted_delta_values.size() &&
                   old_values[i] == sorted_delta_values[j];
      uint64_t new_id = merged.size();
      if (take_old) {
        merged.push_back(old_values[i]);
        old_remap[i++] = new_id;
        if (equal) delta_remap[j++] = new_id;
      } else {
        merged.push_back(sorted_delta_values[j]);
        delta_remap[j++] = new_id;
      }
    }
    int needed_bits = BitsFor(merged.empty() ? 0 : merged.size() - 1);
    int width = compress_main_ ? needed_bits : 64;
    BitPackedVector new_ids(width);
    new_ids.Reserve(st->main_ids.size() + delta_n);
    for (uint64_t r = 0; r < st->main_ids.size(); ++r) {
      new_ids.Append(old_remap[st->main_ids.Get(r)]);
      ++stats.ids_reencoded;
    }
    for (uint64_t r = 0; r < delta_n; ++r) {
      new_ids.Append(delta_remap[delta_rank[st->delta_ids.WriterAt(r)]]);
    }
    fresh->main_dict = SortedDictionary(std::move(merged));
    fresh->main_ids = std::move(new_ids);
    stats.dict_entries_moved = fresh->main_dict.size();
  }

  // seq_cst publish pairs with Reader's pin + state load; the old state is
  // retired, never freed in place — a reader pinned before this swap keeps
  // reading the pre-merge delta until it unpins (DESIGN.md §12.5).
  state_.store(fresh, std::memory_order_seq_cst);
  gc_->Retire([st] { delete st; });
  gc_->ReclaimExpired();
  return stats;
}

size_t Column::MemoryBytes() const {
  const State* st = state_.load(std::memory_order_acquire);
  return st->main_dict.MemoryBytes() + st->main_ids.MemoryBytes() +
         st->delta_dict.MemoryBytes() + st->delta_ids.MemoryBytes();
}

}  // namespace poly
