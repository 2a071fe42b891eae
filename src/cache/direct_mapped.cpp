#include "cache/direct_mapped.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace xoridx::cache {

CompiledIndex::CompiledIndex(const hash::IndexFunction& index_fn)
    : bytes_((index_fn.input_bits() + 7) / 8),
      tables_(256 * static_cast<std::size_t>(std::max(2, bytes_))) {
  const int n = index_fn.input_bits();
  const int m = index_fn.index_bits();
  std::vector<std::uint32_t> images(static_cast<std::size_t>(8 * bytes_), 0);
  for (int i = 0; i < n; ++i) {
    const hash::Word image = index_fn.index(hash::Word{1} << i);
    if (image >> m != 0)
      throw std::invalid_argument("index function image wider than " +
                                  std::to_string(m) + " bits");
    images[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(image);
  }
  // By linearity, table[v] = XOR of the images of v's set bits: extend
  // table[v without its lowest bit] by that bit's image.
  for (int byte = 0; byte < bytes_; ++byte) {
    std::uint32_t* table = tables_.data() + 256 * byte;
    const std::uint32_t* bit_images = images.data() + 8 * byte;
    for (unsigned v = 1; v < 256; ++v)
      table[v] = table[v & (v - 1)] ^ bit_images[std::countr_zero(v)];
  }
}

namespace {

/// `geometry`, once it is known to fit `index_fn` — checked before the
/// cache allocates its lines.
const CacheGeometry& checked(const CacheGeometry& geometry,
                             const hash::IndexFunction& index_fn) {
  if (geometry.associativity != 1)
    throw std::invalid_argument("DirectMappedCache requires associativity 1");
  if (index_fn.index_bits() != geometry.index_bits())
    throw std::invalid_argument(
        "index function width does not match cache geometry");
  return geometry;
}

}  // namespace

DirectMappedCache::DirectMappedCache(const CacheGeometry& geometry,
                                     const hash::IndexFunction& index_fn)
    : geometry_(checked(geometry, index_fn)),
      index_(index_fn),
      lines_(geometry.num_sets()) {}

void DirectMappedCache::flush() {
  for (Line& line : lines_) line.valid = false;
}

}  // namespace xoridx::cache
