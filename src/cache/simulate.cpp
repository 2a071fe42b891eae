#include "cache/simulate.hpp"

#include "cache/direct_mapped.hpp"
#include "cache/fully_associative.hpp"
#include "obs/metrics.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::cache {

namespace {

// One loop per driver over two inputs: a trace source (every trace,
// in-memory ones included) and a pre-extracted block sequence (the
// exhaustive bit-select search).

template <typename Visit>
void for_each_block(std::span<const std::uint64_t> blocks, int /*shift*/,
                    Visit&& visit) {
  for (const std::uint64_t b : blocks) visit(b);
}

template <typename Visit>
void for_each_block(tracestore::TraceSource& source, int shift,
                    Visit&& visit) {
  source.reset();
  tracestore::for_each_access(
      source, [&](const trace::Access& a) { visit(a.addr >> shift); });
}

// Each driver call records one `cache.<stage>_ns` sample and adds its
// accesses to `cache.accesses_simulated` — per call, never per access.

template <typename Input>
CacheStats direct_mapped(Input&& input, const CacheGeometry& geometry,
                         const hash::IndexFunction& index_fn) {
  [[maybe_unused]] const std::uint64_t start = obs::now_ns();
  DirectMappedCache cache(geometry, index_fn);
  for_each_block(input, geometry.offset_bits(),
                 [&cache](std::uint64_t block) { cache.access(block); });
  XORIDX_OBS_HIST("cache.dm_ns", obs::now_ns() - start);
  XORIDX_OBS_COUNT("cache.accesses_simulated", cache.stats().accesses);
  return cache.stats();
}

template <typename Input>
CacheStats fully_associative(Input&& input, const CacheGeometry& geometry) {
  [[maybe_unused]] const std::uint64_t start = obs::now_ns();
  FullyAssociativeCache cache(geometry.num_blocks());
  for_each_block(input, geometry.offset_bits(),
                 [&cache](std::uint64_t block) { cache.access(block); });
  XORIDX_OBS_HIST("cache.fa_ns", obs::now_ns() - start);
  XORIDX_OBS_COUNT("cache.accesses_simulated", cache.stats().accesses);
  return cache.stats();
}

/// One compiled direct-mapped lookup and one fully-associative map probe
/// per access. The FA probe also says whether the block was ever seen
/// (stamp 0), the same first-touch test the conflict profiler uses for
/// compulsory_refs.
template <typename Input>
MissBreakdown classify(Input&& input, const CacheGeometry& geometry,
                       const hash::IndexFunction& index_fn) {
  [[maybe_unused]] const std::uint64_t start = obs::now_ns();
  DirectMappedCache dm(geometry, index_fn);
  FullyAssociativeCache fa(geometry.num_blocks());
  MissBreakdown out;
  for_each_block(input, geometry.offset_bits(), [&](std::uint64_t block) {
    ++out.accesses;
    const bool dm_hit = dm.access(block);
    const FullyAssociativeCache::Outcome fa_outcome = fa.reference(block);
    if (dm_hit) return;
    ++out.misses;
    if (fa_outcome == FullyAssociativeCache::Outcome::first_touch)
      ++out.compulsory;
    else if (fa_outcome == FullyAssociativeCache::Outcome::miss)
      ++out.capacity;
    else
      ++out.conflict;
  });
  XORIDX_OBS_HIST("cache.classify_ns", obs::now_ns() - start);
  XORIDX_OBS_COUNT("cache.accesses_simulated", out.accesses);
  return out;
}

}  // namespace

CacheStats simulate_direct_mapped(const trace::Trace& t,
                                  const CacheGeometry& geometry,
                                  const hash::IndexFunction& index_fn) {
  tracestore::MemorySource source(t);
  return simulate_direct_mapped(source, geometry, index_fn);
}

CacheStats simulate_direct_mapped_blocks(std::span<const std::uint64_t> blocks,
                                         const CacheGeometry& geometry,
                                         const hash::IndexFunction& index_fn) {
  return direct_mapped(blocks, geometry, index_fn);
}

CacheStats simulate_fully_associative(const trace::Trace& t,
                                      const CacheGeometry& geometry) {
  tracestore::MemorySource source(t);
  return simulate_fully_associative(source, geometry);
}

MissBreakdown classify_misses(const trace::Trace& t,
                              const CacheGeometry& geometry,
                              const hash::IndexFunction& index_fn) {
  tracestore::MemorySource source(t);
  return classify_misses(source, geometry, index_fn);
}

CacheStats simulate_direct_mapped(tracestore::TraceSource& source,
                                  const CacheGeometry& geometry,
                                  const hash::IndexFunction& index_fn) {
  return direct_mapped(source, geometry, index_fn);
}

CacheStats simulate_fully_associative(tracestore::TraceSource& source,
                                      const CacheGeometry& geometry) {
  return fully_associative(source, geometry);
}

MissBreakdown classify_misses(tracestore::TraceSource& source,
                              const CacheGeometry& geometry,
                              const hash::IndexFunction& index_fn) {
  return classify(source, geometry, index_fn);
}

}  // namespace xoridx::cache
