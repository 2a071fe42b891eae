// Direct-mapped cache with a pluggable set-index function.
//
// This is the hardware the paper optimizes: a direct-mapped RAM whose set
// index comes from a (possibly reconfigurable) hash of the block address.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"
#include "hash/index_function.hpp"

namespace xoridx::cache {

/// An index function compiled to byte lookup tables: one 256-entry table
/// per byte of the n hashed bits (ceil(n/8) tables), whose XOR is the set
/// index. Correct because every IndexFunction is GF(2)-linear on the low
/// n bits (see hash/index_function.hpp): each table is filled from the n
/// unit-vector images index(1 << i), so compiling costs n virtual calls
/// and 256 XORs per table, and evaluating one address max(2, ceil(n/8))
/// loads.
class CompiledIndex {
 public:
  explicit CompiledIndex(const hash::IndexFunction& index_fn);

  [[nodiscard]] std::uint32_t operator()(std::uint64_t block_addr) const
      noexcept {
    const std::uint32_t* table = tables_.data();
    std::uint32_t set =
        table[block_addr & 0xff] ^ table[256 + ((block_addr >> 8) & 0xff)];
    for (int byte = 2; byte < bytes_; ++byte)
      set ^= table[256 * byte + ((block_addr >> (8 * byte)) & 0xff)];
    return set;
  }

 private:
  int bytes_ = 0;
  // max(2, bytes_) x 256: the first two are always looked up (the second
  // stays zero when n <= 8), so the paper's n = 16 takes no loop.
  std::vector<std::uint32_t> tables_;
};

class DirectMappedCache {
 public:
  /// `index_fn` must produce indices of exactly geometry.index_bits()
  /// bits. It is compiled at construction and not referenced afterwards.
  DirectMappedCache(const CacheGeometry& geometry,
                    const hash::IndexFunction& index_fn);

  /// Access one block address (byte address >> offset_bits). Returns true
  /// on hit and updates the counters.
  ///
  /// A line stores the whole block address rather than index_fn.tag():
  /// every block in one set has the same index, and (index, tag) is
  /// injective, so within a set "same tag" and "same block" are the same
  /// test. The hit/miss sequence is exactly that of the tag-compare
  /// hardware, without computing a tag.
  bool access(std::uint64_t block_addr) noexcept {
    Line& line = lines_[index_(block_addr)];
    ++stats_.accesses;
    if (line.valid && line.block == block_addr) return true;
    ++stats_.misses;
    line.block = block_addr;
    line.valid = true;
    return false;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Invalidate all lines (reconfiguration flush, Section 5: changing the
  /// index function invalidates the mapping, so lines must be flushed).
  void flush();

 private:
  struct Line {
    std::uint64_t block = 0;
    bool valid = false;
  };

  CacheGeometry geometry_;
  CompiledIndex index_;
  std::vector<Line> lines_;
  CacheStats stats_;
};

}  // namespace xoridx::cache
