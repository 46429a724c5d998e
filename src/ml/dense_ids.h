// Dense renumbering of 64-bit keys, shared by the random forest's pool
// encoding (split search looks candidates up by id) and Cramer's V
// (contingency counts live in arrays indexed by code rank).
//
// Ownership and thread-safety: a DenseIds owns its table; it is a
// single-stream scratch object.

#ifndef CAJADE_ML_DENSE_IDS_H_
#define CAJADE_ML_DENSE_IDS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/exec/flat_hash.h"

namespace cajade {

/// \brief Numbers distinct 64-bit keys 0, 1, 2, ... in order of first
/// appearance (open addressing, linear probing).
class DenseIds {
 public:
  /// Sized for at most `max_keys` distinct keys, so Id() never rehashes.
  explicit DenseIds(size_t max_keys) {
    size_t capacity = 16;
    while (capacity < 2 * max_keys) capacity *= 2;
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    keys_.reserve(max_keys);
  }

  /// The id of `key`, assigning the next one on first sight.
  uint32_t Id(uint64_t key) {
    for (size_t i = SplitMix64(key) & mask_;; i = (i + 1) & mask_) {
      const uint32_t id = slots_[i];
      if (id == kEmpty) {
        assert(2 * keys_.size() < slots_.size());
        slots_[i] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        return slots_[i];
      }
      if (keys_[id] == key) return id;
    }
  }

  size_t size() const { return keys_.size(); }
  /// The distinct keys, indexed by id.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> keys_;
  size_t mask_ = 0;
};

}  // namespace cajade

#endif  // CAJADE_ML_DENSE_IDS_H_
