#include "search/exhaustive_bit_select.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/simulate.hpp"
#include "gf2/enumerate.hpp"
#include "search/estimator.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::search {

namespace {

using gf2::Word;

/// Software parallel-bit-extract for 16-bit masks: two 256-entry byte
/// tables, so per-access index extraction is two loads, a shift and an or.
class Pext16 {
 public:
  explicit Pext16(std::uint32_t mask) {
    const std::uint32_t lo_mask = mask & 0xffu;
    const std::uint32_t hi_mask = (mask >> 8) & 0xffu;
    lo_width_ = std::popcount(lo_mask);
    for (std::uint32_t b = 0; b < 256; ++b) {
      lo_[b] = static_cast<std::uint16_t>(extract_byte(b, lo_mask));
      hi_[b] = static_cast<std::uint16_t>(extract_byte(b, hi_mask));
    }
  }

  [[nodiscard]] std::uint32_t operator()(std::uint32_t bits) const {
    return lo_[bits & 0xffu] |
           (static_cast<std::uint32_t>(hi_[(bits >> 8) & 0xffu]) << lo_width_);
  }

 private:
  static std::uint32_t extract_byte(std::uint32_t value, std::uint32_t mask) {
    std::uint32_t out = 0;
    int pos = 0;
    for (int i = 0; i < 8; ++i) {
      if ((mask >> i) & 1u) {
        out |= ((value >> i) & 1u) << pos;
        ++pos;
      }
    }
    return out;
  }

  std::array<std::uint16_t, 256> lo_{};
  std::array<std::uint16_t, 256> hi_{};
  int lo_width_ = 0;
};

std::vector<int> mask_to_positions(Word mask) {
  std::vector<int> pos;
  while (mask != 0) {
    pos.push_back(std::countr_zero(mask));
    mask &= mask - 1;
  }
  return pos;
}

/// Exact direct-mapped miss count for one bit selection. Stores the full
/// block address per line, which is equivalent to a (tag, index) check
/// because tag+index are jointly injective for bit selection.
std::uint64_t simulate_selection(std::span<const std::uint64_t> blocks,
                                 std::uint32_t mask, int index_bits,
                                 std::vector<std::uint64_t>& lines) {
  const Pext16 extract(mask);
  // Every line starts holding a block that can never be referenced into
  // it, so a first reference always misses — block UINT64_MAX included.
  // The all-ones block maps to the last set, so that line starts with
  // block 0 (set 0). A single set has no such block; its first reference
  // is the trace's first block, so it starts with that block's
  // complement.
  lines.assign(std::size_t{1} << index_bits, ~std::uint64_t{0});
  if (index_bits > 0)
    lines.back() = 0;
  else if (!blocks.empty())
    lines[0] = ~blocks.front();
  std::uint64_t misses = 0;
  for (const std::uint64_t block : blocks) {
    const std::uint32_t set = extract(static_cast<std::uint32_t>(block & 0xffffu));
    // Blocks differing only above bit 16 share a set; the stored block
    // address disambiguates them exactly as a hardware tag would.
    if (lines[set] != block) {
      ++misses;
      lines[set] = block;
    }
  }
  return misses;
}

using gf2::for_each_combination;

}  // namespace

ExhaustiveBitSelectResult optimal_bit_select(
    tracestore::TraceSource& source, const cache::CacheGeometry& geometry,
    int hashed_bits) {
  std::vector<std::uint64_t> blocks;
  blocks.reserve(static_cast<std::size_t>(source.size()));
  const int shift = geometry.offset_bits();
  source.reset();
  tracestore::for_each_access(source, [&](const trace::Access& a) {
    blocks.push_back(a.addr >> shift);
  });
  return optimal_bit_select_blocks(blocks, geometry, hashed_bits);
}

ExhaustiveBitSelectResult optimal_bit_select(
    const trace::Trace& t, const cache::CacheGeometry& geometry,
    int hashed_bits) {
  tracestore::MemorySource source(t);
  return optimal_bit_select(source, geometry, hashed_bits);
}

ExhaustiveBitSelectResult optimal_bit_select_blocks(
    std::span<const std::uint64_t> blocks,
    const cache::CacheGeometry& geometry, int hashed_bits) {
  if (hashed_bits > 16)
    throw std::invalid_argument("optimal_bit_select supports n <= 16");
  const int m = geometry.index_bits();
  const int n = hashed_bits;
  if (m > n) throw std::invalid_argument("index bits exceed hashed bits");

  ExhaustiveBitSelectResult result{
      hash::BitSelectFunction::conventional(n, m), ~std::uint64_t{0}, 0};
  std::vector<std::uint64_t> lines;
  std::uint32_t best_mask = (1u << m) - 1;
  for_each_combination(n, m, [&](std::uint32_t mask) {
    const std::uint64_t misses = simulate_selection(blocks, mask, m, lines);
    ++result.candidates;
    if (misses < result.misses) {
      result.misses = misses;
      best_mask = mask;
    }
  });
  result.function = hash::BitSelectFunction(n, mask_to_positions(best_mask));
  return result;
}

namespace {

/// The estimator scan: pick the selection minimizing the Eq.-4 estimate.
std::pair<hash::BitSelectFunction, std::uint64_t> pick_estimated(
    const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile) {
  const int n = profile.hashed_bits();
  const int m = geometry.index_bits();
  if (m > n) throw std::invalid_argument("index bits exceed hashed bits");

  std::uint64_t best_estimate = ~std::uint64_t{0};
  std::uint32_t best_mask = (1u << m) - 1;
  std::uint64_t candidates = 0;
  const Word all = gf2::mask_of(n);
  // One O(1) zeta-view lookup per candidate instead of a 2^(n-m) submask
  // walk; the lazily-built view is shared with every other bit-select
  // kernel on this profile (the heuristic climber, other index widths).
  for_each_combination(n, m, [&](std::uint32_t mask) {
    const std::uint64_t est =
        estimate_misses_bit_select(profile, all & ~static_cast<Word>(mask));
    ++candidates;
    if (est < best_estimate) {
      best_estimate = est;
      best_mask = mask;
    }
  });
  return {hash::BitSelectFunction(n, mask_to_positions(best_mask)),
          candidates};
}

}  // namespace

ExhaustiveBitSelectResult optimal_bit_select_estimated(
    tracestore::TraceSource& source, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile) {
  auto [fn, candidates] = pick_estimated(geometry, profile);
  const cache::CacheStats stats =
      cache::simulate_direct_mapped(source, geometry, fn);
  return ExhaustiveBitSelectResult{std::move(fn), stats.misses, candidates};
}

ExhaustiveBitSelectResult optimal_bit_select_estimated(
    const trace::Trace& t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile) {
  tracestore::MemorySource source(t);
  return optimal_bit_select_estimated(source, geometry, profile);
}

}  // namespace xoridx::search
