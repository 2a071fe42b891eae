// Exhaustive enumeration of subspaces of GF(2)^n.
//
// Each d-dimensional subspace has a unique reduced-row-echelon basis:
// pivot (leading-bit) positions p_1 > ... > p_d, vector i with bit p_i
// set, zeros at the other pivots, and free values only at non-pivot
// positions below p_i. Enumerating pivot sets and free assignments
// therefore visits every subspace exactly once — gaussian_binomial(n, d)
// in total. This enables *optimal* XOR-function search for reduced n,
// the direction the paper's Section 6.1 calls out as open.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gf2/bitvec.hpp"
#include "gf2/counting.hpp"

namespace xoridx::gf2 {

/// Visit every m-of-n bit combination in Gosper's-hack order (ascending
/// as integers): the enumeration the exhaustive bit-select sweep and its
/// benchmarks share. `visit(std::uint32_t mask)`; n must be < 32 and
/// 0 <= m <= n (asserted; other widths visit nothing in release). m = 0
/// (a single-set cache) visits the empty selection once.
template <typename F>
void for_each_combination(int n, int m, F&& visit) {
  assert(m >= 0 && m <= n);
  if (m < 0 || m > n) return;
  const std::uint32_t limit = 1u << n;
  std::uint32_t mask = (1u << m) - 1;
  while (mask < limit) {
    visit(mask);
    const std::uint32_t c = mask & (~mask + 1);
    const std::uint32_t r = mask + c;
    if (r >= limit || r == 0) break;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
}

/// Visit the canonical RREF basis of every d-dimensional subspace of
/// GF(2)^n exactly once, with strictly descending leading bits; the span
/// is reused between calls. Cost is gaussian_binomial(n, d) visits — keep
/// n small (the count for n = 16, d = 8 is ~6.3e19; n = 12, d = 2 is
/// ~2.8e6).
///
/// This is the delta-aware form for incremental evaluators:
/// `visit_full(basis)` fires at the first subspace of each pivot set;
/// every other step changes exactly one basis vector (the Gray-code free-
/// bit sweep) and fires `visit_delta(basis, changed_index, old_value)`
/// instead, where basis[changed_index] already holds the new value and
/// `old_value` is what it replaced. Together the callbacks see exactly
/// the subspaces (and order) of for_each_subspace; callers that track a
/// running Eq.-4 estimate re-price a delta step in O(2^(d-1)) via
/// search::estimate_misses_swap instead of a fresh 2^d enumeration.
template <typename Full, typename Delta>
void for_each_subspace_delta(int n, int d, Full&& visit_full,
                             Delta&& visit_delta) {
  if (d == 0) {
    std::vector<Word> empty;
    visit_full(std::span<const Word>(empty));
    return;
  }
  if (d > n) return;

  std::vector<Word> basis(static_cast<std::size_t>(d));
  std::vector<int> pivots(static_cast<std::size_t>(d));
  // free_slots[k] = (vector index, bit position) of the k-th free entry.
  std::vector<std::pair<int, int>> free_slots;

  // Pivot sets as d-bit combinations of n positions (Gosper's hack).
  const std::uint32_t limit = 1u << n;
  std::uint32_t pivot_mask = (1u << d) - 1;
  while (pivot_mask < limit) {
    // Decode pivots in descending order.
    {
      std::uint32_t bits = pivot_mask;
      for (int i = d - 1; i >= 0; --i) {
        pivots[static_cast<std::size_t>(i)] = std::countr_zero(bits);
        bits &= bits - 1;
      }
    }
    // Collect free slots: vector i may have any value at non-pivot
    // positions below its own pivot.
    free_slots.clear();
    for (int i = 0; i < d; ++i) {
      basis[static_cast<std::size_t>(i)] =
          unit(pivots[static_cast<std::size_t>(i)]);
      for (int q = 0; q < pivots[static_cast<std::size_t>(i)]; ++q)
        if (((pivot_mask >> q) & 1u) == 0) free_slots.emplace_back(i, q);
    }
    // Sweep all free-bit assignments in Gray order: one bit flip each.
    const std::uint64_t assignments = std::uint64_t{1}
                                      << free_slots.size();
    visit_full(std::span<const Word>(basis));
    for (std::uint64_t a = 1; a < assignments; ++a) {
      const auto slot =
          free_slots[static_cast<std::size_t>(std::countr_zero(a))];
      const Word old_value = basis[static_cast<std::size_t>(slot.first)];
      basis[static_cast<std::size_t>(slot.first)] ^= unit(slot.second);
      visit_delta(std::span<const Word>(basis), slot.first, old_value);
    }
    // Reset flipped bits for the next pivot set (re-derived above anyway).
    const std::uint32_t c = pivot_mask & (~pivot_mask + 1);
    const std::uint32_t r = pivot_mask + c;
    if (r >= limit || r == 0) break;
    pivot_mask = (((r ^ pivot_mask) >> 2) / c) | r;
  }
}

/// Visit the canonical RREF basis of every d-dimensional subspace of
/// GF(2)^n exactly once (see the delta-aware variant above for the
/// enumeration scheme). `visit(std::span<const Word>)` receives the basis
/// with strictly descending leading bits; the span is reused between
/// calls.
template <typename F>
void for_each_subspace(int n, int d, F&& visit) {
  for_each_subspace_delta(n, d, visit,
                          [&visit](std::span<const Word> basis, int, Word) {
                            visit(basis);
                          });
}

}  // namespace xoridx::gf2
