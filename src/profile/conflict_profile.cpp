#include "profile/conflict_profile.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "cache/last_use_map.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::profile {

namespace {

/// 2^hashed_bits, rejecting widths outside [1, 24] before anything is
/// allocated (wider shifts are undefined, and 2^30 counters are 8 GiB).
std::size_t dense_table_size(int hashed_bits) {
  if (hashed_bits < 1 || hashed_bits > 24)
    throw std::invalid_argument(
        "hashed_bits must be in [1, 24] for the dense table, got " +
        std::to_string(hashed_bits));
  return std::size_t{1} << hashed_bits;
}

/// Copy the value state (table + bookkeeping) of `from` into `to`. The
/// zeta cache is deliberately not part of the value: each object owns a
/// private lazily-rebuilt one.
void assign_value_state(ConflictProfile& to, const ConflictProfile& from) {
  to.references = from.references;
  to.compulsory_refs = from.compulsory_refs;
  to.capacity_filtered_refs = from.capacity_filtered_refs;
  to.profiled_refs = from.profiled_refs;
  to.pair_count = from.pair_count;
}

}  // namespace

ConflictProfile::ConflictProfile(int hashed_bits,
                                 std::uint32_t capacity_blocks)
    : n_(hashed_bits),
      capacity_blocks_(capacity_blocks),
      table_(dense_table_size(hashed_bits), 0) {}

ConflictProfile::ConflictProfile(const ConflictProfile& other)
    : n_(other.n_),
      capacity_blocks_(other.capacity_blocks_),
      table_(other.table_) {
  assign_value_state(*this, other);
}

ConflictProfile& ConflictProfile::operator=(const ConflictProfile& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  capacity_blocks_ = other.capacity_blocks_;
  table_ = other.table_;
  assign_value_state(*this, other);
  zeta_ = std::make_unique<ZetaCache>();
  return *this;
}

ConflictProfile::ConflictProfile(ConflictProfile&& other) noexcept
    : n_(other.n_),
      capacity_blocks_(other.capacity_blocks_),
      table_(std::move(other.table_)),
      zeta_(std::move(other.zeta_)) {
  assign_value_state(*this, other);
}

ConflictProfile& ConflictProfile::operator=(ConflictProfile&& other) noexcept {
  if (this == &other) return *this;
  n_ = other.n_;
  capacity_blocks_ = other.capacity_blocks_;
  table_ = std::move(other.table_);
  assign_value_state(*this, other);
  zeta_ = std::move(other.zeta_);
  return *this;
}

const std::vector<std::uint64_t>& ConflictProfile::subset_sums() const {
  std::call_once(zeta_->once, [this] {
    XORIDX_SPAN("profile", "zeta_build");
    XORIDX_OBS_COUNT("profile.zeta_builds", 1);
    // Standard subset-sum DP: after processing bit b, z[u] holds the sum
    // of table entries over all v that match u on bits > b and are
    // submasks of u on bits <= b — n * 2^n adds in total. The build is
    // the whole cold cost of the O(1) bit-select estimator, so the low
    // three bit levels are fused into one in-register pass over blocks of
    // eight, and the remaining levels stream disjoint halves the
    // compiler can vectorize.
    std::vector<std::uint64_t> z = table_;
    const std::size_t size = z.size();
    std::uint64_t* const zp = z.data();
    int bit = 0;
    if (n_ >= 3) {
      for (std::size_t b = 0; b < size; b += 8) {
        std::uint64_t a0 = zp[b], a1 = zp[b + 1], a2 = zp[b + 2],
                      a3 = zp[b + 3], a4 = zp[b + 4], a5 = zp[b + 5],
                      a6 = zp[b + 6], a7 = zp[b + 7];
        a1 += a0; a3 += a2; a5 += a4; a7 += a6;  // bit 0
        a2 += a0; a3 += a1; a6 += a4; a7 += a5;  // bit 1
        a4 += a0; a5 += a1; a6 += a2; a7 += a3;  // bit 2
        zp[b + 1] = a1; zp[b + 2] = a2; zp[b + 3] = a3; zp[b + 4] = a4;
        zp[b + 5] = a5; zp[b + 6] = a6; zp[b + 7] = a7;
      }
      bit = 3;
    }
    // Remaining levels two at a time: quarters q0..q3 of a 4*stride
    // block combine as q1+=q0, q2+=q0, q3+=q0+q1+q2 — one fused pass
    // with half the loads and stores of two single-level passes.
    for (; bit + 1 < n_; bit += 2) {
      const std::size_t stride = std::size_t{1} << bit;
      for (std::size_t block = 0; block < size; block += 4 * stride) {
        const std::uint64_t* __restrict q0 = zp + block;
        std::uint64_t* __restrict q1 = zp + block + stride;
        std::uint64_t* __restrict q2 = zp + block + 2 * stride;
        std::uint64_t* __restrict q3 = zp + block + 3 * stride;
        for (std::size_t i = 0; i < stride; ++i) {
          const std::uint64_t v0 = q0[i];
          const std::uint64_t v1 = q1[i] + v0;
          q1[i] = v1;
          const std::uint64_t v2 = q2[i];
          q2[i] = v2 + v0;
          q3[i] += v2 + v1;
        }
      }
    }
    if (bit < n_) {
      const std::size_t stride = std::size_t{1} << bit;
      for (std::size_t block = 0; block < size; block += 2 * stride) {
        const std::uint64_t* __restrict lo = zp + block;
        std::uint64_t* __restrict hi = zp + block + stride;
        for (std::size_t i = 0; i < stride; ++i) hi[i] += lo[i];
      }
    }
    zeta_->table = std::move(z);
    zeta_->built.store(true, std::memory_order_release);
  });
  return zeta_->table;
}

std::uint64_t ConflictProfile::estimate_misses(
    const gf2::Subspace& ns) const {
  if (ns.ambient_dim() != n_)
    throw std::invalid_argument("null space dimension != hashed bits");
  std::uint64_t total = 0;
  ns.for_each_member([&](gf2::Word v) { total += misses(v); });
  return total;
}

std::uint64_t ConflictProfile::total_mass() const {
  std::uint64_t total = 0;
  for (std::size_t v = 1; v < table_.size(); ++v) total += table_[v];
  return total;
}

std::size_t ConflictProfile::distinct_vectors() const {
  std::size_t count = 0;
  for (std::size_t v = 1; v < table_.size(); ++v)
    if (table_[v] != 0) ++count;
  return count;
}

namespace {

/// Figure 1 as a per-access state machine, stepped once per access of
/// the one trace pass.
///
/// Only the top capacity + 1 entries of the LRU stack can matter: a block
/// deeper than that has reuse distance > capacity and is filtered. They
/// live in a flat window ordered by last use (oldest first) holding each
/// block's stamp and its conflict-vector bits (block & mask). A reused
/// block whose stamp predates the window's oldest entry is therefore a
/// capacity miss; otherwise the d entries after its position are exactly
/// the blocks above it on the stack, scanned contiguously and shifted
/// down one slot as the block moves to the top. Eviction advances the
/// low index. The buffer grows on demand up to twice the window — so it
/// tracks the distinct blocks seen, not a possibly huge capacity — and
/// is compacted when its end is reached with at most half of it live:
/// both cost amortised O(1) per access.
class ProfileBuildState {
 public:
  ProfileBuildState(ConflictProfile& profile,
                    const cache::CacheGeometry& geometry, int hashed_bits)
      : profile_(profile),
        mask_(static_cast<std::uint32_t>(gf2::mask_of(hashed_bits))),
        shift_(geometry.offset_bits()),
        window_(std::size_t{geometry.num_blocks()} + 1),
        stamps_(std::min<std::size_t>(2 * window_, 1024)),
        keys_(stamps_.size()) {}

  void step(std::uint64_t addr) {
    const std::uint64_t block = addr >> shift_;
    const auto key = static_cast<std::uint32_t>(block) & mask_;
    ++profile_.references;
    std::uint64_t& last = last_use_[block];
    const std::uint64_t prev = last;
    last = ++clock_;
    if (prev == 0) {
      ++profile_.compulsory_refs;
      push(key);
      return;
    }
    if (prev < stamps_[lo_]) {
      // Figure 1: a reference whose reuse distance exceeds the cache
      // size (in blocks) is a capacity miss and contributes no conflict
      // vectors.
      ++profile_.capacity_filtered_refs;
      push(key);
      return;
    }
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(stamps_.data() + lo_, stamps_.data() + hi_, prev) -
        stamps_.data());
    const std::size_t distance = hi_ - 1 - pos;
    ++profile_.profiled_refs;
    profile_.pair_count += distance;
    for (std::size_t i = pos + 1; i < hi_; ++i)
      profile_.add(key ^ keys_[i]);
    std::memmove(stamps_.data() + pos, stamps_.data() + pos + 1,
                 distance * sizeof(stamps_[0]));
    std::memmove(keys_.data() + pos, keys_.data() + pos + 1,
                 distance * sizeof(keys_[0]));
    stamps_[hi_ - 1] = clock_;
    keys_[hi_ - 1] = key;
  }

 private:
  /// Append the just-referenced block as the newest window entry,
  /// evicting the oldest once the window holds capacity + 1 blocks.
  void push(std::uint32_t key) {
    if (hi_ == stamps_.size()) {
      const std::size_t live = hi_ - lo_;
      if (2 * live > stamps_.size()) {
        // Never at full size: the window is at most half of it.
        const std::size_t grown = std::min(2 * stamps_.size(), 2 * window_);
        stamps_.resize(grown);
        keys_.resize(grown);
      } else {
        std::memmove(stamps_.data(), stamps_.data() + lo_,
                     live * sizeof(stamps_[0]));
        std::memmove(keys_.data(), keys_.data() + lo_,
                     live * sizeof(keys_[0]));
        lo_ = 0;
        hi_ = live;
      }
    }
    stamps_[hi_] = clock_;
    keys_[hi_] = key;
    ++hi_;
    if (hi_ - lo_ > window_) ++lo_;
  }

  ConflictProfile& profile_;
  const std::uint32_t mask_;  // hashed_bits <= 24
  const int shift_;
  const std::size_t window_;  // capacity in blocks + 1

  cache::LastUseMap last_use_;
  std::uint64_t clock_ = 0;  // stamp of the latest reference; 0 = never
  std::vector<std::uint64_t> stamps_;  // window stamps, ascending
  std::vector<std::uint32_t> keys_;    // block & mask, parallel to stamps_
  std::size_t lo_ = 0;  // window = [lo_, hi_)
  std::size_t hi_ = 0;
};

}  // namespace

ConflictProfile build_conflict_profile(tracestore::TraceSource& source,
                                       const cache::CacheGeometry& geometry,
                                       int hashed_bits) {
  ConflictProfile profile(hashed_bits, geometry.num_blocks());
  source.reset();
  ProfileBuildState state(profile, geometry, hashed_bits);
  tracestore::for_each_access(
      source, [&state](const trace::Access& a) { state.step(a.addr); });
  return profile;
}

ConflictProfile build_conflict_profile(const trace::Trace& t,
                                       const cache::CacheGeometry& geometry,
                                       int hashed_bits) {
  tracestore::MemorySource source(t);
  return build_conflict_profile(source, geometry, hashed_bits);
}

}  // namespace xoridx::profile
