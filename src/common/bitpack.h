#ifndef POLY_COMMON_BITPACK_H_
#define POLY_COMMON_BITPACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace poly {

/// Number of bits needed to represent values in [0, max_value].
/// Returns 1 for max_value == 0 so an all-equal column still occupies
/// one bit per row (value-ID vectors must stay addressable).
int BitsFor(uint64_t max_value);

/// Fixed-width bit-packed vector of unsigned integers — the physical
/// representation of the column store's value-ID ("reference") vectors.
/// The paper (§III) describes these as the compressed references into the
/// sorted dictionary; the SOE relaxes their compression (§IV-A), which we
/// model by choosing width 64 ("uncompressed" mode).
class BitPackedVector {
 public:
  /// Creates an empty vector storing `bits` bits per entry (1..64).
  explicit BitPackedVector(int bits = 1);

  void Append(uint64_t value);
  uint64_t Get(size_t index) const {
    size_t bit_pos = index * static_cast<size_t>(bits_);
    size_t word = bit_pos / 64;
    size_t offset = bit_pos % 64;
    uint64_t value = words_[word] >> offset;
    if (offset + bits_ > 64) value |= words_[word + 1] << (64 - offset);
    if (bits_ < 64) value &= (1ULL << bits_) - 1;
    return value;
  }
  void Set(size_t index, uint64_t value);

  size_t size() const { return size_; }
  int bits() const { return bits_; }
  /// Bytes of the underlying word storage.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Returns a copy re-packed at a new width (used when a merge grows the
  /// dictionary past the current width). New width must fit all values.
  BitPackedVector Repack(int new_bits) const;

  /// Decodes [begin, end) into `out` (must have end-begin capacity).
  void Decode(size_t begin, size_t end, uint64_t* out) const;

  void Reserve(size_t n);
  void Clear();

 private:
  int bits_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace poly

#endif  // POLY_COMMON_BITPACK_H_
