// Fenwick (binary indexed) tree over reference timestamps, used to count
// "most recent use" markers for O(log N) exact reuse distances
// (Bennett–Kruskal). Only the reuse-distance histogram uses it: the
// conflict profiler needs distances only up to the cache capacity and
// reads them from its bounded recency window instead.
#pragma once

#include <cstdint>
#include <vector>

namespace xoridx::profile {

class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t i, int delta) {
    for (++i; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }

  /// Sum of entries in [0, i).
  [[nodiscard]] std::int64_t prefix(std::size_t i) const {
    std::int64_t s = 0;
    for (; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

  [[nodiscard]] std::int64_t total() const { return prefix(tree_.size() - 1); }

 private:
  std::vector<std::int64_t> tree_;
};

}  // namespace xoridx::profile
