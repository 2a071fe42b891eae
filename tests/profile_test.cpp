// Tests for the Figure-1 conflict profiler, the LRU stack and reuse
// distances — including hand-traced examples of the paper's algorithm.
#include <gtest/gtest.h>

#include <random>

#include "cache/fully_associative.hpp"
#include "cache/simulate.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "profile/lru_stack.hpp"
#include "profile/reuse_distance.hpp"
#include "trace/generators.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::profile {
namespace {

using trace::AccessKind;
using trace::Trace;

Trace block_sequence(std::initializer_list<std::uint64_t> blocks) {
  Trace t;
  for (std::uint64_t b : blocks) t.append(b * 4, AccessKind::read);
  return t;
}

TEST(LruStack, FirstTouchPushes) {
  LruStack s;
  const auto r = s.reference(7, 100);
  EXPECT_TRUE(r.first_touch);
  EXPECT_EQ(s.contents(), std::vector<std::uint64_t>{7});
}

TEST(LruStack, CollectsBlocksAbove) {
  LruStack s;
  s.reference(1, 100);
  s.reference(2, 100);
  s.reference(3, 100);
  const auto r = s.reference(1, 100);
  EXPECT_FALSE(r.first_touch);
  EXPECT_FALSE(r.deep);
  EXPECT_EQ(r.above, (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(s.contents(), (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(LruStack, DeepWhenBeyondLimit) {
  LruStack s;
  for (std::uint64_t b = 0; b < 10; ++b) s.reference(b, 100);
  const auto r = s.reference(0, 4);  // 9 blocks above, limit 4
  EXPECT_TRUE(r.deep);
  EXPECT_TRUE(r.above.empty());
  // Block still moves to the top.
  EXPECT_EQ(s.contents().front(), 0u);
}

TEST(LruStack, RepeatAccessHasNothingAbove) {
  LruStack s;
  s.reference(5, 10);
  const auto r = s.reference(5, 10);
  EXPECT_FALSE(r.first_touch);
  EXPECT_FALSE(r.deep);
  EXPECT_TRUE(r.above.empty());
}

// ---------------------------------------------------------------------------
// Figure 1 semantics, hand-traced.
// ---------------------------------------------------------------------------

TEST(ConflictProfile, HandTracedExample) {
  // Trace of blocks: A=0, B=3, A, C=5, A.
  //  - A: compulsory.
  //  - B: compulsory.
  //  - A: B above -> misses(A^B=3) += 1.
  //  - C: compulsory.
  //  - A: C above -> misses(A^C=5) += 1.
  const Trace t = block_sequence({0, 3, 0, 5, 0});
  const cache::CacheGeometry geom(1024, 4);
  const ConflictProfile p = build_conflict_profile(t, geom, 8);
  EXPECT_EQ(p.references, 5u);
  EXPECT_EQ(p.compulsory_refs, 3u);
  EXPECT_EQ(p.profiled_refs, 2u);
  EXPECT_EQ(p.misses(3), 1u);
  EXPECT_EQ(p.misses(5), 1u);
  EXPECT_EQ(p.pair_count, 2u);
  EXPECT_EQ(p.total_mass(), 2u);
  EXPECT_EQ(p.distinct_vectors(), 2u);
}

TEST(ConflictProfile, CountsEveryIntermediateBlock) {
  // A, B, C, D, A: all of B, C, D contribute a vector.
  const Trace t = block_sequence({0, 1, 2, 3, 0});
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(1), 1u);
  EXPECT_EQ(p.misses(2), 1u);
  EXPECT_EQ(p.misses(3), 1u);
}

TEST(ConflictProfile, RepeatedPatternAccumulates) {
  // (A B A B ...): after warmup each access sees the other block above.
  Trace t;
  for (int i = 0; i < 10; ++i) {
    t.append(0, AccessKind::read);
    t.append(7 * 4, AccessKind::read);
  }
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(7), 18u);  // 20 refs - 2 compulsory
}

TEST(ConflictProfile, CapacityFilteredReferences) {
  // Working set of 2x cache blocks, cyclic: every non-first reference has
  // reuse distance 511 > 256 and is filtered.
  const cache::CacheGeometry geom(1024, 4);  // 256 blocks
  Trace t;
  for (int rep = 0; rep < 3; ++rep)
    for (std::uint64_t b = 0; b < 512; ++b)
      t.append(b * 4, AccessKind::read);
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  EXPECT_EQ(p.compulsory_refs, 512u);
  EXPECT_EQ(p.capacity_filtered_refs, 2u * 512u);
  EXPECT_EQ(p.profiled_refs, 0u);
  EXPECT_EQ(p.total_mass(), 0u);
}

TEST(ConflictProfile, TruncatesToHashedBits) {
  // Blocks 0 and 2^10 differ only above 8 bits: vector truncates to 0.
  const Trace t = block_sequence({0, 1024, 0});
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(0), 1u);
}

TEST(ConflictProfile, EstimateEqualsBruteForceSum) {
  // Eq. 4 via Gray enumeration == direct sum over members.
  std::mt19937_64 rng(5);
  const Trace t = trace::random_trace(0, 200, 4, 4000, 21);
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 10);
  for (int trial = 0; trial < 20; ++trial) {
    const gf2::Subspace ns = gf2::random_subspace(10, 4, rng);
    std::uint64_t brute = 0;
    for (gf2::Word v : ns.members()) brute += p.misses(v);
    EXPECT_EQ(p.estimate_misses(ns), brute);
  }
}

TEST(ConflictProfile, EstimateExactForIsolatedConflicts) {
  // When each reference has at most one conflicting partner, Eq. 4 is an
  // exact conflict-miss count. Pattern: (A B A B ...) where A, B share a
  // set under modulo indexing.
  const cache::CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 50; ++i) {
    t.append(0, AccessKind::read);
    t.append(256 * 4, AccessKind::read);  // same set, vector = 0x100
  }
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  const hash::XorFunction conv = hash::XorFunction::conventional(16, 8);
  const std::uint64_t estimated = p.estimate_misses(conv.null_space());
  const cache::CacheStats exact = cache::simulate_direct_mapped(t, geom, conv);
  EXPECT_EQ(estimated, exact.misses - 2);  // exact minus compulsory
}

TEST(ConflictProfile, EstimateOvercountsMultiwayConflicts) {
  // Three blocks in one set: an access may be preceded by two conflicting
  // blocks but incurs only one miss — Eq. 4 overcounts (the inexactness
  // the paper proves unavoidable in Section 3.3).
  const cache::CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 30; ++i) {
    t.append(0, AccessKind::read);
    t.append(256 * 4, AccessKind::read);
    t.append(512 * 4, AccessKind::read);
  }
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  const hash::XorFunction conv = hash::XorFunction::conventional(16, 8);
  const std::uint64_t estimated = p.estimate_misses(conv.null_space());
  const cache::CacheStats exact = cache::simulate_direct_mapped(t, geom, conv);
  EXPECT_GT(estimated, exact.misses);
}

TEST(ConflictProfile, RejectsBadWidths) {
  // Checked before the 2^n table is allocated: 30 would be 8 GiB of
  // counters and 64 an undefined shift.
  for (const int bits : {-1, 0, 25, 30, 64})
    EXPECT_THROW(ConflictProfile(bits, 256), std::invalid_argument)
        << "bits=" << bits;
  const ConflictProfile p(8, 256);
  EXPECT_THROW((void)p.estimate_misses(gf2::Subspace(12)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reuse distances
// ---------------------------------------------------------------------------

TEST(ReuseDistance, SimplePattern) {
  // A B A: A's second access has distance 1; B never repeats.
  const Trace t = block_sequence({0, 1, 0});
  const ReuseHistogram h = reuse_distance_histogram(t, 2, 16);
  EXPECT_EQ(h.first_touches, 2u);
  EXPECT_EQ(h.bucket[1], 1u);
}

TEST(ReuseDistance, RepeatIsDistanceZero) {
  const Trace t = block_sequence({5, 5, 5});
  const ReuseHistogram h = reuse_distance_histogram(t, 2, 16);
  EXPECT_EQ(h.bucket[0], 2u);
}

TEST(ReuseDistance, DistinctBlocksNotReferences) {
  // A B B B A: distance of the second A is 1 (one distinct block).
  const Trace t = block_sequence({0, 1, 1, 1, 0});
  const ReuseHistogram h = reuse_distance_histogram(t, 2, 16);
  EXPECT_EQ(h.bucket[1], 1u);
  EXPECT_EQ(h.bucket[0], 2u);
}

TEST(ReuseDistance, LruMissesMatchSimulator) {
  const Trace t = trace::random_trace(0, 400, 4, 8000, 77);
  const ReuseHistogram h = reuse_distance_histogram(t, 2, 4096);
  for (const std::size_t capacity : {16u, 64u, 256u}) {
    cache::FullyAssociativeCache fa(static_cast<std::uint32_t>(capacity));
    for (const trace::Access& a : t) fa.access(a.addr >> 2);
    EXPECT_EQ(h.lru_misses(capacity), fa.stats().misses)
        << "capacity=" << capacity;
  }
}

TEST(ReuseDistance, DeeperBucketCounts) {
  Trace t;
  for (int rep = 0; rep < 2; ++rep)
    for (std::uint64_t b = 0; b < 100; ++b)
      t.append(b * 4, AccessKind::read);
  const ReuseHistogram h = reuse_distance_histogram(t, 2, 50);
  EXPECT_EQ(h.deeper, 100u);  // all reuses at distance 99 >= 50
}

// Differential oracle: Figure 1 on the LruStack, a direct linked-list
// LRU stack. Returns the full profile state (table and bookkeeping).
ConflictProfile naive_profile(const Trace& t,
                              const cache::CacheGeometry& geom,
                              int hashed_bits) {
  ConflictProfile naive(hashed_bits, geom.num_blocks());
  const gf2::Word mask = gf2::mask_of(hashed_bits);
  LruStack stack;
  for (const trace::Access& a : t) {
    const std::uint64_t block = a.addr >> geom.offset_bits();
    ++naive.references;
    const auto r = stack.reference(block, geom.num_blocks());
    if (r.first_touch) {
      ++naive.compulsory_refs;
    } else if (r.deep) {
      ++naive.capacity_filtered_refs;
    } else {
      ++naive.profiled_refs;
      for (std::uint64_t y : r.above) naive.add((block ^ y) & mask);
      naive.pair_count += r.above.size();
    }
  }
  return naive;
}

/// The production build must equal the oracle in full, and its
/// streaming and in-memory overloads must agree byte for byte.
void expect_matches_oracle(const Trace& t, const cache::CacheGeometry& geom,
                           int hashed_bits) {
  const ConflictProfile fast = build_conflict_profile(t, geom, hashed_bits);
  const ConflictProfile naive = naive_profile(t, geom, hashed_bits);
  EXPECT_EQ(fast.references, naive.references);
  EXPECT_EQ(fast.compulsory_refs, naive.compulsory_refs);
  EXPECT_EQ(fast.capacity_filtered_refs, naive.capacity_filtered_refs);
  EXPECT_EQ(fast.profiled_refs, naive.profiled_refs);
  EXPECT_EQ(fast.pair_count, naive.pair_count);
  for (gf2::Word v = 0; v <= gf2::mask_of(hashed_bits); ++v)
    ASSERT_EQ(fast.misses(v), naive.misses(v)) << "v=" << v;
  EXPECT_TRUE(fast == naive);

  tracestore::MemorySource source(t);
  EXPECT_TRUE(build_conflict_profile(source, geom, hashed_bits) == fast);
}

// Differential test: the production profiler against the LruStack
// implementation of Figure 1.
class ProfilerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfilerDifferential, MatchesNaiveImplementation) {
  const std::uint64_t seed = GetParam();
  const cache::CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 600, 4, 6000, seed);
  expect_matches_oracle(t, geom, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfilerDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// A long trace on a 4-block cache: the recency window (5 entries in a
// 10-slot buffer) compacts thousands of times, and most references are
// capacity-filtered.
TEST(ProfilerEdges, TinyCacheCompactsManyTimes) {
  const Trace t = trace::random_trace(0, 40, 16, 20000, 99);
  expect_matches_oracle(t, cache::CacheGeometry(64, 16), 8);
}

// Capacity at or above the distinct-block count: nothing is ever
// evicted, so no reference is capacity-filtered.
TEST(ProfilerEdges, CapacityCoversEveryBlock) {
  const Trace t = trace::random_trace(0, 64, 4, 5000, 7);  // <= 64 blocks
  for (const std::uint32_t size : {256u, 4096u}) {  // 64 and 1024 blocks
    const cache::CacheGeometry geom(size, 4);
    expect_matches_oracle(t, geom, 10);
    EXPECT_EQ(build_conflict_profile(t, geom, 10).capacity_filtered_refs, 0u);
  }
}

// More distinct blocks than the recency buffer's initial 1,024 slots:
// the buffer grows, and at 8 KB (2,048 blocks) it then reaches twice
// the window and compacts under eviction.
TEST(ProfilerEdges, WindowBufferGrowsWithDistinctBlocks) {
  const Trace t = trace::random_trace(0, 3000, 4, 20000, 4);
  for (const std::uint32_t size : {8192u, 16384u}) {
    const cache::CacheGeometry geom(size, 4);
    expect_matches_oracle(t, geom, 14);
  }
}

// 1-byte blocks make block == address, so 0 and UINT64_MAX (the
// last-use map's empty-slot key) are real blocks.
TEST(ProfilerEdges, SentinelAndZeroAddressesAreOrdinaryBlocks) {
  const std::uint64_t top = ~std::uint64_t{0};
  Trace t;
  for (int rep = 0; rep < 50; ++rep)
    for (const std::uint64_t a : {top, std::uint64_t{0}, top - 1,
                                  std::uint64_t{1}, top, std::uint64_t{7}})
      t.append(a, AccessKind::read);
  for (const std::uint32_t size : {4u, 16u}) {
    const cache::CacheGeometry geom(size, 1);
    expect_matches_oracle(t, geom, 8);
  }
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(16, 1), 8);
  EXPECT_EQ(p.compulsory_refs, 5u);  // top, 0, top-1, 1, 7
}

// Reuse distance == capacity is profiled, not filtered (the documented
// convention): A B C A on a 2-block cache counts the last A with its
// 2 pairs, (A^B) and (A^C).
TEST(ProfilerEdges, DistanceEqualToCapacityIsProfiled) {
  const Trace t = block_sequence({1, 2, 4, 1});
  const cache::CacheGeometry geom(8, 4);  // 2 blocks
  const ConflictProfile p = build_conflict_profile(t, geom, 8);
  EXPECT_EQ(p.compulsory_refs, 3u);
  EXPECT_EQ(p.capacity_filtered_refs, 0u);
  EXPECT_EQ(p.profiled_refs, 1u);
  EXPECT_EQ(p.pair_count, 2u);
  EXPECT_EQ(p.misses(1 ^ 2), 1u);
  EXPECT_EQ(p.misses(1 ^ 4), 1u);
  expect_matches_oracle(t, geom, 8);

  // One more distinct block in between crosses the boundary.
  const ConflictProfile deeper =
      build_conflict_profile(block_sequence({1, 2, 4, 8, 1}), geom, 8);
  EXPECT_EQ(deeper.capacity_filtered_refs, 1u);
  EXPECT_EQ(deeper.pair_count, 0u);
}

}  // namespace
}  // namespace xoridx::profile
