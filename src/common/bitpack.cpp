#include "common/bitpack.h"

#include <cassert>

namespace poly {

int BitsFor(uint64_t max_value) {
  int bits = 1;
  while (bits < 64 && (max_value >> bits) != 0) ++bits;
  return bits;
}

BitPackedVector::BitPackedVector(int bits) : bits_(bits) {
  assert(bits >= 1 && bits <= 64);
}

void BitPackedVector::Append(uint64_t value) {
  assert(bits_ == 64 || (value >> bits_) == 0);
  size_t bit_pos = size_ * static_cast<size_t>(bits_);
  size_t word = bit_pos / 64;
  size_t offset = bit_pos % 64;
  size_t needed_words = (bit_pos + bits_ + 63) / 64;
  if (words_.size() < needed_words) words_.resize(needed_words, 0);
  words_[word] |= value << offset;
  if (offset + bits_ > 64) {
    words_[word + 1] |= value >> (64 - offset);
  }
  ++size_;
}

void BitPackedVector::Set(size_t index, uint64_t value) {
  assert(index < size_);
  assert(bits_ == 64 || (value >> bits_) == 0);
  size_t bit_pos = index * static_cast<size_t>(bits_);
  size_t word = bit_pos / 64;
  size_t offset = bit_pos % 64;
  uint64_t mask = bits_ == 64 ? ~0ULL : ((1ULL << bits_) - 1);
  words_[word] = (words_[word] & ~(mask << offset)) | (value << offset);
  if (offset + bits_ > 64) {
    int high_bits = static_cast<int>(offset) + bits_ - 64;
    uint64_t high_mask = (1ULL << high_bits) - 1;
    words_[word + 1] = (words_[word + 1] & ~high_mask) | (value >> (64 - offset));
  }
}

BitPackedVector BitPackedVector::Repack(int new_bits) const {
  BitPackedVector out(new_bits);
  out.Reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.Append(Get(i));
  return out;
}

void BitPackedVector::Decode(size_t begin, size_t end, uint64_t* out) const {
  for (size_t i = begin; i < end; ++i) *out++ = Get(i);
}

void BitPackedVector::Reserve(size_t n) {
  words_.reserve((n * static_cast<size_t>(bits_) + 63) / 64);
}

void BitPackedVector::Clear() {
  size_ = 0;
  words_.clear();
}

}  // namespace poly
