// Flat block -> last-use-stamp map shared by the Figure-1 profiler and
// the fully-associative LRU cache.
//
// Both walk an LRU stack implicitly: a reference is classified by the
// stamp of its block's previous use, never by searching a list. Stamp 0
// means "never used", so the first touch of a block (a compulsory miss)
// is the lookup that reads 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xoridx::cache {

/// Open-addressing map from block address to the timestamp of its last
/// use (linear probing over a power-of-two table, Fibonacci hashing,
/// load factor at most 1/2). A lookup inserts a missing block with stamp
/// 0, so the caller reads the old stamp before overwriting it. The
/// all-ones key marks an empty slot; a block with that address (1-byte
/// blocks at UINT64_MAX) lives in a dedicated side slot. Entries are
/// never erased: the map grows with the distinct blocks referenced.
class LastUseMap {
 public:
  LastUseMap() { rehash(10); }

  /// The last-use stamp of `block`, inserted as 0 when absent. The
  /// reference is valid until the next call that inserts a block.
  std::uint64_t& operator[](std::uint64_t block) {
    if (block == kEmpty) return empty_key_stamp_;
    for (std::size_t i = home(block);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == block) return s.stamp;
      if (s.key == kEmpty) {
        if (2 * (used_ + 1) > slots_.size()) {
          rehash(log2_size_ + 1);
          return (*this)[block];
        }
        ++used_;
        s.key = block;
        return s.stamp;
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t stamp = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t block) const noexcept {
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ull) >>
                                    (64 - log2_size_));
  }

  void rehash(int log2_size) {
    std::vector<Slot> old = std::move(slots_);
    log2_size_ = log2_size;
    slots_.assign(std::size_t{1} << log2_size, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
  int log2_size_ = 0;
  std::uint64_t empty_key_stamp_ = 0;
};

}  // namespace xoridx::cache
