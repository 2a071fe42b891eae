// Cache-model tests: direct-mapped, set-associative LRU, fully
// associative, skewed, and the 3C classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <random>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "cache/direct_mapped.hpp"
#include "cache/fully_associative.hpp"
#include "cache/geometry.hpp"
#include "cache/set_associative.hpp"
#include "cache/simulate.hpp"
#include "cache/skewed.hpp"
#include "hash/bit_select_function.hpp"
#include "hash/permutation_function.hpp"
#include "hash/xor_function.hpp"
#include "profile/lru_stack.hpp"
#include "trace/generators.hpp"

namespace xoridx::cache {
namespace {

using hash::XorFunction;
using trace::Trace;

TEST(Geometry, PaperConfigurations) {
  const CacheGeometry kb1(1024, 4);
  EXPECT_EQ(kb1.num_blocks(), 256u);
  EXPECT_EQ(kb1.index_bits(), 8);
  EXPECT_EQ(kb1.offset_bits(), 2);
  const CacheGeometry kb4(4096, 4);
  EXPECT_EQ(kb4.index_bits(), 10);
  const CacheGeometry kb16(16384, 4);
  EXPECT_EQ(kb16.index_bits(), 12);
}

TEST(Geometry, RejectsInvalid) {
  EXPECT_THROW(CacheGeometry(1000, 4), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(1024, 3), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(0, 4), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(4, 4, 2), std::invalid_argument);
}

TEST(DirectMapped, HitsOnRepeat) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  EXPECT_FALSE(cache.access(100));
  EXPECT_TRUE(cache.access(100));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST(DirectMapped, ConflictOnSameSet) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  // Blocks 0 and 256 share set 0 under modulo indexing.
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(256));
  EXPECT_FALSE(cache.access(0));  // evicted
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(DirectMapped, DistinctSetsNoConflict) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(1));
}

TEST(DirectMapped, FlushInvalidates) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  cache.access(42);
  cache.flush();
  EXPECT_FALSE(cache.access(42));
}

TEST(DirectMapped, WidthMismatchRejected) {
  const XorFunction f = XorFunction::conventional(16, 8);
  EXPECT_THROW(DirectMappedCache(CacheGeometry(4096, 4), f),
               std::invalid_argument);
}

TEST(DirectMapped, HashedIndexEquivalentToFullBlockTags) {
  // Storing f.tag(block) must behave exactly like storing the whole
  // block address (tag+index injectivity): compare against a reference.
  std::mt19937_64 rng(3);
  gf2::Matrix g = gf2::Matrix::random(8, 8, rng);
  const hash::PermutationFunction f(16, 8, g);
  const CacheGeometry geom(1024, 4);
  DirectMappedCache cache(geom, f);

  std::vector<std::uint64_t> ref(geom.num_sets(), ~0ull);
  std::uint64_t ref_misses = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t block = rng() % 5000;
    const auto set = static_cast<std::size_t>(f.index(block));
    const bool ref_hit = ref[set] == block;
    if (!ref_hit) {
      ++ref_misses;
      ref[set] = block;
    }
    EXPECT_EQ(cache.access(block), ref_hit);
  }
  EXPECT_EQ(cache.stats().misses, ref_misses);
}

TEST(DirectMapped, HighBitsBeyondHashedBitsStillConflict) {
  // Lines compare whole block addresses, not tags: two blocks that agree
  // on the n = 16 hashed bits share a set under every index function,
  // and must still evict each other because their tags differ.
  std::mt19937_64 rng(5);
  const XorFunction hashed(gf2::Matrix::random_full_rank(16, 8, rng));
  const XorFunction modulo = XorFunction::conventional(16, 8);
  for (const XorFunction* f : {&hashed, &modulo}) {
    DirectMappedCache cache(CacheGeometry(1024, 4), *f);
    const std::uint64_t low = 0x1234;
    const std::uint64_t high = low | (std::uint64_t{0x5} << 16);
    ASSERT_EQ(f->index(low), f->index(high));
    ASSERT_NE(f->tag(low), f->tag(high));
    EXPECT_FALSE(cache.access(low));
    EXPECT_FALSE(cache.access(high));
    EXPECT_FALSE(cache.access(low));
    EXPECT_TRUE(cache.access(low));
    EXPECT_EQ(cache.stats().misses, 3u);
  }
}

// ---------------------------------------------------------------------------
// Compiled index: byte tables built from the unit-vector images
// ---------------------------------------------------------------------------

class CompiledIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompiledIndexSweep, EqualsIndexFunctionOnEveryClass) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<unsigned>(n));
  for (const int m : {1, (n + 1) / 2, n}) {
    const XorFunction xor_fn(gf2::Matrix::random_full_rank(n, m, rng));
    std::vector<int> positions(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) positions[static_cast<std::size_t>(i)] = i;
    std::shuffle(positions.begin(), positions.end(), rng);
    positions.resize(static_cast<std::size_t>(m));
    const hash::BitSelectFunction bit_select(n, positions);
    const hash::PermutationFunction permutation(
        n, m, gf2::Matrix::random(n - m, m, rng));
    for (const hash::IndexFunction* f :
         std::initializer_list<const hash::IndexFunction*>{
             &xor_fn, &bit_select, &permutation}) {
      const CompiledIndex compiled(*f);
      // Random 64-bit addresses carry bits >= n, which must not matter.
      std::vector<std::uint64_t> addrs{0, ~std::uint64_t{0},
                                       std::uint64_t{1} << (n - 1),
                                       std::uint64_t{1} << n};
      for (int i = 0; i < 2000; ++i) addrs.push_back(rng());
      for (const std::uint64_t a : addrs)
        ASSERT_EQ(compiled(a), f->index(a))
            << f->describe() << " n=" << n << " m=" << m << " addr=" << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HashedBits, CompiledIndexSweep,
                         ::testing::Values(1, 8, 9, 16, 24));

// ---------------------------------------------------------------------------
// Set-associative LRU
// ---------------------------------------------------------------------------

TEST(SetAssociative, LruEviction) {
  const XorFunction f = XorFunction::conventional(16, 7);
  // 1 KB, 2-way: 128 sets. Blocks 0, 128, 256 map to set 0.
  SetAssociativeCache cache(CacheGeometry(1024, 4, 2), f);
  cache.access(0);
  cache.access(128);
  EXPECT_TRUE(cache.access(0));    // still resident
  cache.access(256);               // evicts 128 (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(SetAssociative, MatchesReferenceModel) {
  // Randomized differential test against a simple per-set LRU list model.
  const XorFunction f = XorFunction::conventional(16, 6);
  const CacheGeometry geom(1024, 4, 4);  // 64 sets x 4 ways
  SetAssociativeCache cache(geom, f);

  std::vector<std::vector<std::uint64_t>> model(geom.num_sets());
  std::mt19937_64 rng(11);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t block = rng() % 700;
    auto& set = model[static_cast<std::size_t>(f.index(block))];
    const auto it = std::find(set.begin(), set.end(), block);
    const bool model_hit = it != set.end();
    if (model_hit) set.erase(it);
    set.insert(set.begin(), block);
    if (set.size() > geom.associativity) set.pop_back();
    EXPECT_EQ(cache.access(block), model_hit) << "i=" << i;
  }
}

TEST(SetAssociative, DirectMappedSpecialCaseAgrees) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  SetAssociativeCache sa(geom, f);
  DirectMappedCache dm(geom, f);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t block = rng() % 2000;
    EXPECT_EQ(sa.access(block), dm.access(block));
  }
}

// ---------------------------------------------------------------------------
// Fully associative LRU
// ---------------------------------------------------------------------------

TEST(FullyAssociative, CapacityEviction) {
  FullyAssociativeCache cache(4);
  for (std::uint64_t b = 0; b < 4; ++b) EXPECT_FALSE(cache.access(b));
  for (std::uint64_t b = 0; b < 4; ++b) EXPECT_TRUE(cache.access(b));
  cache.access(99);                 // evicts LRU block 0
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(99));
}

TEST(FullyAssociative, LruOrderMaintained) {
  FullyAssociativeCache cache(3);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(1);  // 1 becomes MRU; order: 1,3,2
  cache.access(4);  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(3));
  EXPECT_FALSE(cache.access(2));
}

TEST(FullyAssociative, NeverWorseThanDirectMappedOnLoops) {
  // On a cyclic working set that fits, FA has zero steady-state misses.
  FullyAssociativeCache cache(64);
  for (int rep = 0; rep < 10; ++rep)
    for (std::uint64_t b = 0; b < 64; ++b) cache.access(b);
  EXPECT_EQ(cache.stats().misses, 64u);  // compulsory only
}

TEST(FullyAssociative, ReferenceReportsFirstTouches) {
  using Outcome = FullyAssociativeCache::Outcome;
  FullyAssociativeCache cache(1);
  EXPECT_EQ(cache.reference(7), Outcome::first_touch);
  EXPECT_EQ(cache.reference(7), Outcome::hit);
  EXPECT_EQ(cache.reference(8), Outcome::first_touch);
  EXPECT_EQ(cache.reference(7), Outcome::miss);  // evicted by 8
  cache.flush();
  EXPECT_EQ(cache.reference(7), Outcome::miss);  // flushed, not new
  EXPECT_EQ(cache.stats().misses, 4u);
}

// Differential oracle: the LruStack walks a linked-list LRU stack; a
// reference hits a capacity-C cache exactly when fewer than C blocks sit
// above it (not `deep` at limit C - 1).
class FullyAssociativeDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, unsigned>> {};

TEST_P(FullyAssociativeDifferential, MatchesLruStackOracle) {
  using Outcome = FullyAssociativeCache::Outcome;
  const auto [capacity, seed] = GetParam();
  std::mt19937_64 rng(seed * 7919 + capacity);
  FullyAssociativeCache cache(capacity);
  profile::LruStack oracle;
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t oracle_misses = 0;
  std::size_t step = 0;
  const auto ref = [&](std::uint64_t block) {
    const auto r = oracle.reference(block, capacity - 1);
    const bool hit = !r.first_touch && !r.deep;
    const Outcome expected = hit ? Outcome::hit
                             : seen.insert(block).second ? Outcome::first_touch
                                                         : Outcome::miss;
    if (!hit) ++oracle_misses;
    ASSERT_EQ(cache.reference(block), expected)
        << "capacity=" << capacity << " step=" << step << " block=" << block;
    ++step;
  };
  // Blocks 0 and UINT64_MAX (1-byte blocks at the ends of the address
  // space; the latter is the LastUseMap's side slot) are ordinary.
  const std::uint64_t top = ~std::uint64_t{0};
  const auto pool_block = [&](std::uint64_t i) {
    return i == 0 ? 0 : i == 1 ? top : 0x40000 + 64 * i;
  };
  const std::uint64_t c = capacity;
  for (int round = 0; round < 2; ++round) {
    // Fill past capacity (first touches and evictions).
    for (std::uint64_t i = 0; i < c + 3; ++i)
      ASSERT_NO_FATAL_FAILURE(ref(pool_block(i)));
    // Hit-heavy: a hot set of at most 48 blocks while the oldest cached
    // block stays cold, so head never moves and the ring must compact
    // several times (once per ~capacity references at most).
    const std::uint64_t hot = std::min<std::uint64_t>(c, 48);
    for (std::uint64_t i = 0; i < 6 * std::max<std::uint64_t>(c, 256); ++i)
      ASSERT_NO_FATAL_FAILURE(ref(pool_block(c + 3 - hot + rng() % hot)));
    // Mixed reuse over twice the capacity: hits and capacity misses.
    for (std::uint64_t i = 0; i < 2000; ++i)
      ASSERT_NO_FATAL_FAILURE(ref(pool_block(rng() % (2 * c + 2))));
    if (round == 0) {
      cache.flush();
      oracle = profile::LruStack();
    }
  }
  EXPECT_EQ(cache.stats().misses, oracle_misses);
  EXPECT_EQ(cache.stats().accesses, step);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, FullyAssociativeDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 64u, 4096u),
                       ::testing::Values(1u, 2u)));

// ---------------------------------------------------------------------------
// Skewed-associative cache
// ---------------------------------------------------------------------------

TEST(Skewed, DifferentHashesBreakConflicts) {
  // Bank 0 uses modulo; bank 1 uses a XOR hash. Blocks 0 and 128 collide
  // in bank 0 but may coexist via bank 1.
  const XorFunction f0 = XorFunction::conventional(16, 7);
  std::mt19937_64 rng(17);
  gf2::Matrix g(9, 7);
  g.set_row(0, 0b0000011);
  g.set_row(1, 0b0001100);
  const hash::PermutationFunction f1(16, 7, g);
  SkewedAssociativeCache cache(CacheGeometry(1024, 4), f0, f1);
  cache.access(0);
  cache.access(128);
  cache.access(0);
  cache.access(128);
  // With two banks, at most one of the two re-accesses misses.
  EXPECT_LE(cache.stats().misses, 3u);
}

TEST(Skewed, HitsAfterInsert) {
  const XorFunction f0 = XorFunction::conventional(16, 7);
  const XorFunction f1 = XorFunction::conventional(16, 7);
  SkewedAssociativeCache cache(CacheGeometry(1024, 4), f0, f1);
  EXPECT_FALSE(cache.access(7));
  EXPECT_TRUE(cache.access(7));
  cache.flush();
  EXPECT_FALSE(cache.access(7));
}

TEST(Skewed, RequiresHalfWidthIndices) {
  const XorFunction f = XorFunction::conventional(16, 8);
  EXPECT_THROW(SkewedAssociativeCache(CacheGeometry(1024, 4), f, f),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Simulation drivers and 3C classification
// ---------------------------------------------------------------------------

TEST(Simulate, StrideTraceWorstCase) {
  // Stride of exactly the cache size: every reference maps to set 0 under
  // modulo indexing; all accesses miss after the cold start.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::stride_trace(0, 1024, 512);
  const CacheStats stats = simulate_direct_mapped(t, geom, f);
  EXPECT_EQ(stats.accesses, 512u);
  EXPECT_EQ(stats.misses, 512u);
}

TEST(Simulate, XorFunctionFixesPowerOfTwoStride) {
  // The classic XOR-indexing win (Rau 1991): fold high bits into the
  // index so a 2^k stride no longer aliases.
  const CacheGeometry geom(1024, 4);
  gf2::Matrix g(8, 8);
  for (int i = 0; i < 8; ++i) g.set_row(i, gf2::unit(i));  // idx ^= high
  const hash::PermutationFunction f(16, 8, g);
  const Trace loop = [] {
    Trace t;
    for (int rep = 0; rep < 8; ++rep)
      for (int i = 0; i < 128; ++i)
        t.append(static_cast<std::uint64_t>(i) * 1024,
                 trace::AccessKind::read);
    return t;
  }();
  const CacheStats modulo = simulate_direct_mapped(
      loop, geom, XorFunction::conventional(16, 8));
  const CacheStats hashed = simulate_direct_mapped(loop, geom, f);
  EXPECT_EQ(modulo.misses, loop.size());  // total thrash
  EXPECT_EQ(hashed.misses, 128u);         // compulsory only
}

TEST(Simulate, BlocksPathAgreesWithTracePath) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0x4000, 600, 4, 5000, 99);
  const CacheStats a = simulate_direct_mapped(t, geom, f);
  const std::vector<std::uint64_t> blocks =
      t.block_addresses(geom.offset_bits());
  const CacheStats b = simulate_direct_mapped_blocks(blocks, geom, f);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Classify, PartsSumToMisses) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 20000, 7);
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory + b.capacity + b.conflict, b.misses);
  EXPECT_EQ(b.misses, simulate_direct_mapped(t, geom, f).misses);
}

TEST(Classify, PureConflictPattern) {
  // Two blocks, same set, alternating: no capacity misses possible.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 50; ++i) {
    t.append(0, trace::AccessKind::read);
    t.append(1024, trace::AccessKind::read);
  }
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory, 2u);
  EXPECT_EQ(b.capacity, 0u);
  EXPECT_EQ(b.conflict, 98u);
}

TEST(Classify, PureCapacityPattern) {
  // Cyclic walk over 2x capacity: LRU misses everything; all classified
  // capacity after first touch.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 512; ++i)
      t.append(static_cast<std::uint64_t>(i) * 4, trace::AccessKind::read);
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory, 512u);
  EXPECT_EQ(b.conflict, 0u);
  EXPECT_EQ(b.capacity, 3u * 512u);
}

TEST(Simulate, FullyAssociativeDriver) {
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 100; ++i)
      t.append(static_cast<std::uint64_t>(i) * 4, trace::AccessKind::read);
  const CacheStats fa = simulate_fully_associative(t, geom);
  EXPECT_EQ(fa.misses, 100u);  // fits: compulsory only
}

}  // namespace
}  // namespace xoridx::cache
