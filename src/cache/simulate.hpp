// Trace-driven simulation drivers and 3C miss classification.
//
// Every driver has one body, over a tracestore::TraceSource: it resets
// the source and pulls one pass, so one source object serves several
// passes and resident decoded state stays bounded by the source's
// batch/chunk size. The trace::Trace overloads wrap the trace in a
// zero-copy MemorySource and forward.
//
// Each driver call records one `cache.dm_ns`, `cache.fa_ns` or
// `cache.classify_ns` histogram sample and adds the accesses it simulated
// to the `cache.accesses_simulated` counter (per call, not per access).
#pragma once

#include <cstdint>
#include <span>

#include "cache/geometry.hpp"
#include "hash/index_function.hpp"
#include "trace/trace.hpp"

namespace xoridx::tracestore {
class TraceSource;
}

namespace xoridx::cache {

/// Run a trace through a direct-mapped cache using `index_fn` and return
/// the miss count.
[[nodiscard]] CacheStats simulate_direct_mapped(
    tracestore::TraceSource& source, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);
[[nodiscard]] CacheStats simulate_direct_mapped(
    const trace::Trace& t, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Same, over a pre-extracted block-address sequence.
[[nodiscard]] CacheStats simulate_direct_mapped_blocks(
    std::span<const std::uint64_t> blocks, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Fully-associative LRU miss count at equal capacity (Table 3, `FA`).
[[nodiscard]] CacheStats simulate_fully_associative(
    tracestore::TraceSource& source, const CacheGeometry& geometry);
[[nodiscard]] CacheStats simulate_fully_associative(
    const trace::Trace& t, const CacheGeometry& geometry);

/// Three-C miss breakdown of a direct-mapped cache run (Hill's model, as
/// used implicitly by the paper's profiling filters): a miss is compulsory
/// on first touch, capacity if a fully-associative LRU cache of equal size
/// also misses, and conflict otherwise. At reuse distance exactly equal
/// to the capacity in blocks the fully-associative cache misses, so 3C
/// says capacity while the conflict profiler still profiles the
/// reference (see build_conflict_profile): re-indexing can remove it.
/// First touch is the profiler's test too, so `compulsory` equals the
/// profile's compulsory_refs on the same trace and geometry.
struct MissBreakdown {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t compulsory = 0;
  std::uint64_t capacity = 0;
  std::uint64_t conflict = 0;

  friend bool operator==(const MissBreakdown&, const MissBreakdown&) = default;
};

[[nodiscard]] MissBreakdown classify_misses(
    tracestore::TraceSource& source, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);
[[nodiscard]] MissBreakdown classify_misses(const trace::Trace& t,
                                            const CacheGeometry& geometry,
                                            const hash::IndexFunction& index_fn);

}  // namespace xoridx::cache
