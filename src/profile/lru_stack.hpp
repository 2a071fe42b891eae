// LRU stack over block addresses.
//
// The profiling algorithm of Figure 1 walks, for each reference, the
// blocks accessed since the previous reference to the same block — exactly
// the blocks above it on an LRU stack. The stack is a doubly-linked list
// with a hash index so that moves to the top are O(1) and the walk is cut
// off after `limit` entries (anything deeper is a capacity miss and not
// profiled). The production profiler (conflict_profile.cpp) keeps only a
// flat window of the top limit + 1 entries; this direct stack is the
// reference it is tested against.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

namespace xoridx::profile {

class LruStack {
 public:
  LruStack() = default;

  /// Reference `block`, walking at most `limit` entries from the top.
  ///
  /// Returns std::nullopt when the block was never seen before (compulsory
  /// miss; the block is pushed). Otherwise returns the blocks that were
  /// above it, unless more than `limit` blocks were above it, in which
  /// case an empty *engaged* vector is returned with `deep` set. In every
  /// case the block ends up at the top of the stack.
  struct Result {
    bool first_touch = false;
    bool deep = false;  ///< reuse distance exceeded `limit`
    std::vector<std::uint64_t> above;
  };

  Result reference(std::uint64_t block, std::size_t limit);

  [[nodiscard]] std::size_t size() const noexcept { return stack_.size(); }

  /// Stack from top (most recent) to bottom; for tests.
  [[nodiscard]] std::vector<std::uint64_t> contents() const;

 private:
  std::list<std::uint64_t> stack_;  // front = top
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> pos_;
};

}  // namespace xoridx::profile
