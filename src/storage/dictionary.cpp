#include "storage/dictionary.h"

#include <algorithm>
#include <cassert>

namespace poly {

SortedDictionary::SortedDictionary(std::vector<Value> sorted_distinct)
    : values_(std::move(sorted_distinct)) {
#ifndef NDEBUG
  for (size_t i = 1; i < values_.size(); ++i) assert(values_[i - 1].SortsBefore(values_[i]));
#endif
}

std::optional<uint64_t> SortedDictionary::Lookup(const Value& v) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), v,
                             [](const Value& a, const Value& b) { return a.SortsBefore(b); });
  if (it != values_.end() && *it == v) {
    return static_cast<uint64_t>(it - values_.begin());
  }
  return std::nullopt;
}

uint64_t SortedDictionary::LowerBound(const Value& v) const {
  return static_cast<uint64_t>(
      std::lower_bound(values_.begin(), values_.end(), v) - values_.begin());
}

uint64_t SortedDictionary::UpperBound(const Value& v) const {
  return static_cast<uint64_t>(
      std::upper_bound(values_.begin(), values_.end(), v) - values_.begin());
}

bool SortedDictionary::AllGreaterThanMax(const std::vector<Value>& other_sorted) const {
  if (other_sorted.empty()) return true;
  if (values_.empty()) return true;
  return values_.back() < other_sorted.front();
}

void SortedDictionary::AppendGreater(const std::vector<Value>& sorted_values) {
  assert(AllGreaterThanMax(sorted_values));
  values_.insert(values_.end(), sorted_values.begin(), sorted_values.end());
}

size_t SortedDictionary::MemoryBytes() const {
  size_t bytes = values_.capacity() * sizeof(Value);
  for (const auto& v : values_) {
    if (v.type() == DataType::kString || v.type() == DataType::kDocument) {
      bytes += v.AsString().capacity();
    }
  }
  return bytes;
}

uint64_t DeltaDictionary::GetOrAdd(const Value& v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  // The value store (with its release watermark publish) happens-before the
  // caller's row-id append, so any reader that sees the id sees the value.
  uint64_t id = values_.Append(v);
  index_.emplace(v, id);
  return id;
}

std::optional<uint64_t> DeltaDictionary::Lookup(const Value& v) const {
  auto it = index_.find(v);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

size_t DeltaDictionary::MemoryBytes() const {
  // Reads only published values, so it may run beside the writer: the index
  // holds one entry per value, and the snapshot's size stands in for its.
  ChunkedVector<Value>::Snapshot snap = values_.Snap();
  size_t bytes = values_.MemoryBytes() +
                 snap.size() * (sizeof(Value) + sizeof(uint64_t) + 16);
  for (uint64_t i = 0; i < snap.size(); ++i) {
    const Value& v = snap[i];
    if (v.type() == DataType::kString || v.type() == DataType::kDocument) {
      bytes += v.AsString().capacity();
    }
  }
  return bytes;
}

}  // namespace poly
