// Optimal bit-selecting functions by exhaustive exact simulation
// (the baseline of Patel et al., ICCAD 2004, used in Table 3's "opt"
// column).
//
// The bit-selecting design space has only C(n, m) members, so — unlike
// XOR functions — every candidate can be simulated exactly. The paper
// notes the optimal algorithm is "very slow" and applies it only to the
// short PowerStone traces; this implementation keeps that regime fast by
// pre-extracting block addresses once and using a two-table parallel-bit-
// extract per candidate (n <= 16).
#pragma once

#include <cstdint>
#include <span>

#include "cache/geometry.hpp"
#include "hash/bit_select_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/search_types.hpp"
#include "trace/trace.hpp"

namespace xoridx::tracestore {
class TraceSource;
}

namespace xoridx::search {

struct ExhaustiveBitSelectResult {
  hash::BitSelectFunction function;
  std::uint64_t misses = 0;       ///< exact simulated misses of the winner
  std::uint64_t candidates = 0;   ///< C(n, m) selections simulated
};

/// Simulate every m-out-of-n bit selection on the trace and return the one
/// with the fewest *exact* direct-mapped misses. `hashed_bits` must be at
/// most 16 (the paper's n). Every candidate re-walks the trace, so block
/// addresses are extracted once from one source pass (O(trace) uint64s,
/// rather than C(n, m) decode passes) and handed to
/// optimal_bit_select_blocks. The trace::Trace overload wraps a zero-copy
/// MemorySource and forwards.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select(
    tracestore::TraceSource& source, const cache::CacheGeometry& geometry,
    int hashed_bits);
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select(
    const trace::Trace& t, const cache::CacheGeometry& geometry,
    int hashed_bits);

/// Same, over a pre-extracted block-address sequence.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select_blocks(
    std::span<const std::uint64_t> blocks, const cache::CacheGeometry& geometry,
    int hashed_bits);

/// Estimator-guided variant: picks the selection minimizing the Eq.-4
/// estimate instead of exact misses. The scan needs only the profile; the
/// one exact simulation of the winner pulls a single pass from the
/// source. Used by the estimator-accuracy ablation to quantify the
/// profiling heuristic's error in isolation.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select_estimated(
    tracestore::TraceSource& source, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile);
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select_estimated(
    const trace::Trace& t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile);

}  // namespace xoridx::search
