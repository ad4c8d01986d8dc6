#ifndef CDPIPE_PIPELINE_FLAT_KEY_MAP_H_
#define CDPIPE_PIPELINE_FLAT_KEY_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cdpipe {

/// Per-key statistics table of the stateful components: an open-addressing
/// hash map from uint32 keys (feature indices, column indices) to small
/// value structs, all (key, value) slots in one contiguous vector.
///
/// A copy is one vector copy, so a pipeline Clone() (each snapshot publish
/// after a statistics change) costs a memcpy of the table instead of one
/// allocation per key, and an update probes in place instead of allocating
/// a node per new key.  Keys are stored widened to 64 bits with an
/// out-of-range empty marker, so every uint32 key, 0 and 0xFFFFFFFF
/// included, is legal; the widening costs nothing for 8-byte values (the
/// slot pads to 8-byte alignment either way).
template <typename V>
class FlatKeyMap {
 public:
  /// The value for `key`, value-initialized and inserted if absent.  An
  /// insert may rehash, invalidating references from earlier calls.
  V& operator[](uint32_t key) {
    if (!slots_.empty()) {
      Slot& slot = slots_[IndexOf(key)];
      if (slot.key == key) return slot.value;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Slot& slot = slots_[IndexOf(key)];
    slot.key = key;
    slot.value = V{};
    ++size_;
    return slot.value;
  }

  /// The value for `key`, or nullptr if absent.
  const V* find(uint32_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[IndexOf(key)];
    return slot.key == key ? &slot.value : nullptr;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.clear();
    size_ = 0;
    shift_ = 64;
  }

  /// Every (key, value) pair, ascending by key.
  std::vector<std::pair<uint32_t, V>> Sorted() const {
    std::vector<std::pair<uint32_t, V>> out;
    out.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) {
        out.emplace_back(static_cast<uint32_t>(slot.key), slot.value);
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return out;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint64_t key = kEmpty;
    V value{};
  };

  /// Index of the slot holding `key`, or of the empty slot where it would
  /// go.  The table is never full (load factor <= 3/4), so the probe ends.
  size_t IndexOf(uint32_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread dense
    // feature indices evenly; linear probing from there.
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].key != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = std::max(kMinSlots, old.size() * 2);
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) {
        slots_[IndexOf(static_cast<uint32_t>(slot.key))] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  /// 64 - log2(slots_.size()); the hash keeps the top log2(size) bits.
  int shift_ = 64;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_FLAT_KEY_MAP_H_
