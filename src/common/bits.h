// Small bit-manipulation helpers (C++17: no <bit>).

#ifndef OVC_COMMON_BITS_H_
#define OVC_COMMON_BITS_H_

#include <cstdint>

namespace ovc {

/// Smallest power of two >= n (n == 0 yields 1). Used to pad tree-of-losers
/// capacities; n must be <= 2^31.
inline uint32_t CeilToPowerOfTwo(uint32_t n) {
  uint64_t p = 1;
  while (p < n) p <<= 1;
  return static_cast<uint32_t>(p);
}

/// log2 of a power of two `p` >= 1: the number of matches on each
/// leaf-to-root path of a tree-of-losers with `p` leaves.
inline uint32_t Log2OfPowerOfTwo(uint32_t p) {
  return static_cast<uint32_t>(__builtin_ctz(p));
}

}  // namespace ovc

#endif  // OVC_COMMON_BITS_H_
