#include "cache/fully_associative.hpp"

#include <algorithm>
#include <stdexcept>

namespace xoridx::cache {

FullyAssociativeCache::FullyAssociativeCache(std::uint32_t capacity_blocks)
    : capacity_(capacity_blocks) {
  if (capacity_blocks == 0)
    throw std::invalid_argument("capacity must be nonzero");
  const std::size_t slots =
      std::min<std::size_t>(1024, 2 * std::size_t{capacity_blocks});
  blocks_.resize(slots);
  live_.resize(slots);
}

void FullyAssociativeCache::make_room() {
  const std::size_t slots = blocks_.size();
  if (2 * std::size_t{resident_} > slots) {
    blocks_.resize(2 * slots);
    live_.resize(2 * slots);
    return;
  }
  // Compact: the live slots move to the front, re-stamped in order above
  // every stamp issued so far.
  const std::uint64_t fresh = next_;
  std::size_t out = 0;
  for (std::uint64_t s = head_; s < next_; ++s) {
    const std::size_t i = s - base_;
    if (live_[i] == 0) continue;
    const std::uint64_t block = blocks_[i];
    blocks_[out] = block;
    live_[out] = 1;
    last_use_[block] = fresh + out;
    ++out;
  }
  base_ = fresh;
  head_ = fresh;
  next_ = fresh + out;
}

void FullyAssociativeCache::flush() {
  head_ = next_;
  resident_ = 0;
}

}  // namespace xoridx::cache
