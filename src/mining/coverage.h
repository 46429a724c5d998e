// 64-bit bitmaps for the mining hot path. Coverage (Definition 7a) is a set
// of PT positions; storing it as packed words turns the TP/FP counting
// inside F-score calculation into AND + popcount over words instead of a
// byte-per-position scan. The same word layout carries the miner's row
// match masks (bit r = APT row r matches, see CompiledPredicate::EvalMask),
// so a match mask flows into coverage scoring without ever materializing
// row-id lists.
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_MINING_COVERAGE_H_
#define CAJADE_MINING_COVERAGE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace cajade {

/// \brief A fixed-size bitset sized at runtime, built for reuse: Reset()
/// keeps the allocation. Tail bits past num_bits() are kept zero by every
/// member that could set them, so word-level consumers (AndPopcount,
/// CoverageScorer) never need per-bit bounds checks.
class CoverageBitmap {
 public:
  CoverageBitmap() = default;
  explicit CoverageBitmap(size_t bits) { Reset(bits); }

  static size_t NumWords(size_t bits) { return (bits + 63) / 64; }

  /// Resizes to `bits` positions and clears every bit. Never shrinks
  /// capacity, so steady-state use allocates nothing.
  void Reset(size_t bits) {
    num_bits_ = bits;
    words_.assign(NumWords(bits), 0);
  }

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Sets every bit in [0, num_bits()).
  void SetAll() {
    std::fill(words_.begin(), words_.end(), ~uint64_t{0});
    ClearTail();
  }

  /// Number of set bits.
  size_t Popcount() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// popcount(this & other); both bitmaps must be the same size.
  size_t AndPopcount(const CoverageBitmap& other) const;

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  void ClearTail() {
    if ((num_bits_ & 63) != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << (num_bits_ & 63)) - 1;
    }
  }

  std::vector<uint64_t> words_;
  size_t num_bits_ = 0;
};

/// popcount(a AND b) over `num_words` words.
inline size_t AndPopcount(const uint64_t* a, const uint64_t* b,
                          size_t num_words) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return n;
}

inline size_t CoverageBitmap::AndPopcount(const CoverageBitmap& other) const {
  assert(num_bits_ == other.num_bits_);
  return cajade::AndPopcount(words_.data(), other.words_.data(),
                             words_.size());
}

/// out = a AND b over `num_words` words; returns popcount(out). `out` may
/// alias `a` or `b`. The refinement step: a child pattern's match mask is
/// its parent's mask AND the precomputed mask of the predicate it adds.
inline size_t AndPopcountInto(const uint64_t* a, const uint64_t* b,
                              size_t num_words, uint64_t* out) {
  size_t n = 0;
  for (size_t i = 0; i < num_words; ++i) {
    out[i] = a[i] & b[i];
    n += static_cast<size_t>(__builtin_popcountll(out[i]));
  }
  return n;
}

/// Calls `fn(bit_index)` for every set bit of `words` (ascending). Zero
/// words are skipped, so cost tracks the popcount, not the span. The
/// mask→coverage projection walks match masks with it.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t num_words, Fn&& fn) {
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = words[w];
    if (word == 0) continue;
    const size_t base = w * 64;
    do {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(word));
      word &= word - 1;
      fn(base + b);
    } while (word != 0);
  }
}

}  // namespace cajade

#endif  // CAJADE_MINING_COVERAGE_H_
