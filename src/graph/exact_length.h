// Exact path lengths: the fixed-point domain the point-to-point search
// (PointNetworkDistance) and the landmark tables (graph/landmarks.h)
// add edge weights in.
//
// A length is an integer count of 2^-64 units held in an __int128. An
// edge weight lies in (0, kMaxEdgeWeight) = (0, 2^28) (graph/types.h),
// so it converts to fewer than 2^92 units; a shortest path has fewer
// than 2^32 edges (NodeId is 32 bits), so every label is below 2^124.
// The search's heap keys are 2g + (π_t − π_s) with both potentials at
// most a path length, so a key lies in (−2^125, 3 · 2^124), and the sum
// of two heap tops that its stop rule forms stays below 6 · 2^124 <
// 2^127: nothing the search adds can overflow.
//
// Integer sums are associative, so the shortest length is one integer
// whatever order a search adds the edges in: a search pruned by
// landmark bounds and one that is not return the same bits.
#ifndef NETCLUS_GRAPH_EXACT_LENGTH_H_
#define NETCLUS_GRAPH_EXACT_LENGTH_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace netclus {

/// A path length in units of 2^-64.
using ExactLength = __int128;

/// Above every length a path can have: an unreached node's label.
inline constexpr ExactLength kUnreachedLength = static_cast<ExactLength>(1)
                                                << 126;

/// `x` in units of 2^-64, rounded down; `x` must lie in [0, 2^28]. Bit
/// operations on the double's fields, no floating-point conversion:
/// x = mantissa · 2^(exponent − 1075), so x · 2^64 = mantissa ·
/// 2^(exponent − 1011). Rounding down is monotone, so an offset within
/// an edge converts to at most the edge's weight.
inline ExactLength ToExact(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const int exponent = static_cast<int>((bits >> 52) & 0x7ff);
  if (exponent == 0) return 0;  // zero or subnormal: below one unit
  const uint64_t mantissa = (bits & ((uint64_t{1} << 52) - 1)) |
                            (uint64_t{1} << 52);
  const int shift = exponent - 1011;
  if (shift >= 0) return static_cast<ExactLength>(mantissa) << shift;
  if (shift <= -53) return 0;  // below one unit
  return static_cast<ExactLength>(mantissa >> -shift);
}

/// The double nearest to `length` units of 2^-64.
inline double FromExact(ExactLength length) {
  return std::ldexp(static_cast<double>(length), -64);
}

}  // namespace netclus

#endif  // NETCLUS_GRAPH_EXACT_LENGTH_H_
