#include "search/optimizer.hpp"

#include <stdexcept>

#include "hash/xor_function.hpp"
#include "search/bit_select_search.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::search {
namespace {

/// The profile-guided part of the pipeline: search the requested class
/// for the smallest Eq.-4 estimate.
OptimizationResult pick_function(const cache::CacheGeometry& geometry,
                                 const profile::ConflictProfile& profile,
                                 const OptimizeOptions& options) {
  const int n = options.hashed_bits;
  const int m = geometry.index_bits();
  if (profile.hashed_bits() != n)
    throw std::invalid_argument("profile hashed_bits mismatch");
  if (m > n)
    throw std::invalid_argument("cache needs more index bits than hashed bits");

  OptimizationResult result;
  switch (options.search.function_class) {
    case FunctionClass::bit_select: {
      BitSelectSearchResult r = search_bit_select(profile, m, options.search);
      result.function =
          std::make_unique<hash::BitSelectFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
    case FunctionClass::permutation: {
      PermutationSearchResult r =
          search_permutation(profile, m, options.search);
      result.function =
          std::make_unique<hash::PermutationFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
    case FunctionClass::general_xor: {
      SubspaceSearchResult r = search_general_xor(profile, m, options.search);
      result.function =
          std::make_unique<hash::XorFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
  }
  result.estimated_misses = result.stats.best_estimate;
  return result;
}

}  // namespace

OptimizationResult optimize_index(const trace::Trace& t,
                                  const cache::CacheGeometry& geometry,
                                  const OptimizeOptions& options) {
  tracestore::MemorySource source(t);
  const profile::ConflictProfile profile =
      profile::build_conflict_profile(source, geometry, options.hashed_bits);
  return optimize_index_with_profile(source, geometry, profile, options);
}

OptimizationResult optimize_index_with_profile(
    tracestore::TraceSource& source, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile, const OptimizeOptions& options,
    const cache::CacheStats* known_baseline) {
  OptimizationResult result = pick_function(geometry, profile, options);
  const hash::XorFunction conventional = hash::XorFunction::conventional(
      options.hashed_bits, geometry.index_bits());
  const cache::CacheStats base =
      known_baseline ? *known_baseline
                     : cache::simulate_direct_mapped(source, geometry,
                                                     conventional);
  const cache::CacheStats opt =
      cache::simulate_direct_mapped(source, geometry, *result.function);
  result.baseline_misses = base.misses;
  result.optimized_misses = opt.misses;
  result.accesses = base.accesses;
  if (options.revert_if_worse && opt.misses > base.misses) {
    result.function = conventional.clone();
    result.optimized_misses = base.misses;
    result.reverted = true;
  }
  return result;
}

OptimizationResult optimize_index_with_profile(
    const trace::Trace& t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile, const OptimizeOptions& options,
    const cache::CacheStats* known_baseline) {
  tracestore::MemorySource source(t);
  return optimize_index_with_profile(source, geometry, profile, options,
                                     known_baseline);
}

}  // namespace xoridx::search
