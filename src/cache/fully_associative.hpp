// Fully-associative LRU cache.
//
// Used for the `FA` column of Table 3 and as the capacity-miss oracle of
// the 3C classification: an access that misses in a fully-associative LRU
// cache of equal capacity is a capacity (or compulsory) miss, not a
// conflict miss.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/last_use_map.hpp"

namespace xoridx::cache {

/// LRU in amortised O(1) per access, with no linked list.
///
/// Every reference issues a fresh stamp, recorded in a LastUseMap and
/// appended to a recency ring (one slot per stamp, oldest first, holding
/// the block). A re-referenced block's older slot becomes a tombstone
/// (its live flag is cleared); nothing is unlinked. The `head` is the
/// oldest live slot still cached, so the cached blocks are exactly the
/// live slots from head to the newest stamp, and a reference hits exactly
/// when its block's last stamp is not older than head. A miss beyond
/// capacity evicts by advancing head to the next live slot; the evicted
/// block's stale stamp then reads as a miss. Head only moves forward, so
/// skipping tombstones costs O(1) amortised.
///
/// The ring is a flat buffer that starts at up to 1,024 slots. When it
/// is full it grows (doubling while more than half of it is live, so it
/// stays below 4x capacity and follows the blocks actually cached) or is
/// compacted: its live slots move to the front and are re-stamped above
/// every stamp issued so far, which makes every older stamp a miss. A
/// compaction leaves at least half the buffer free, so its O(buffer)
/// cost is paid by as many references: amortised O(1).
///
/// The map keeps every block ever referenced, so memory is O(distinct
/// blocks), and a block's stamp is 0 exactly until its first reference:
/// reference() reports first touches (compulsory misses) for free.
class FullyAssociativeCache {
 public:
  enum class Outcome : std::uint8_t {
    hit,
    miss,         ///< referenced before, evicted since
    first_touch,  ///< never referenced before (compulsory)
  };

  /// Capacity in blocks.
  explicit FullyAssociativeCache(std::uint32_t capacity_blocks);

  explicit FullyAssociativeCache(const CacheGeometry& geometry)
      : FullyAssociativeCache(geometry.num_blocks()) {}

  /// Access one block address; true on hit. LRU replacement.
  bool access(std::uint64_t block_addr) {
    return reference(block_addr) == Outcome::hit;
  }

  /// Access one block address and say how it resolved. First touch
  /// counts from construction: flush() empties the cache but does not
  /// make blocks new again.
  Outcome reference(std::uint64_t block_addr) {
    ++stats_.accesses;
    if (next_ - base_ == blocks_.size()) make_room();
    std::uint64_t& last = last_use_[block_addr];
    const std::uint64_t prev = last;
    const std::uint64_t stamp = next_++;
    last = stamp;
    blocks_[stamp - base_] = block_addr;
    live_[stamp - base_] = 1;
    if (prev >= head_) {  // stamps start at 1 and head_ >= 1
      live_[prev - base_] = 0;
      if (prev == head_) advance_head();
      return Outcome::hit;
    }
    ++stats_.misses;
    if (resident_ == capacity_)
      advance_head();  // evict the least recently used block
    else
      ++resident_;
    return prev == 0 ? Outcome::first_touch : Outcome::miss;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void flush();

 private:
  /// Move head_ to the next live slot (one always exists: the newest).
  void advance_head() {
    do ++head_;
    while (live_[head_ - base_] == 0);
  }
  void make_room();

  std::uint32_t capacity_;
  std::uint32_t resident_ = 0;  // live slots in [head_, next_)
  LastUseMap last_use_;
  std::vector<std::uint64_t> blocks_;  // ring: slot of stamp s at s - base_
  std::vector<std::uint8_t> live_;     // 0 = tombstone, parallel to blocks_
  std::uint64_t base_ = 1;  // stamp stored in slot 0
  std::uint64_t head_ = 1;  // oldest cached stamp
  std::uint64_t next_ = 1;  // next stamp to issue
  CacheStats stats_;
};

}  // namespace xoridx::cache
