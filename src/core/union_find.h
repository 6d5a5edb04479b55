// Disjoint-set forest with union by size and path compression — the
// "weighted-union heuristic" the paper uses for efficient cluster merging
// in Single-Link.
#ifndef NETCLUS_CORE_UNION_FIND_H_
#define NETCLUS_CORE_UNION_FIND_H_

#include <cstdint>
#include <vector>

namespace netclus {

/// \brief Disjoint sets over elements 0..n-1.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n);

  /// Representative of the set containing `x` (with path compression).
  /// Inline for the common case after compression: `x` is a root or a
  /// root's child.
  uint32_t Find(uint32_t x) {
    const uint32_t up = parent_[x];
    return parent_[up] == up ? up : FindAndCompress(x);
  }

  /// Merges the sets of `a` and `b`; returns false when already merged.
  bool Union(uint32_t a, uint32_t b);

  /// Size of the set containing `x`.
  uint32_t SizeOf(uint32_t x) { return size_[Find(x)]; }

  uint32_t num_sets() const { return num_sets_; }

 private:
  uint32_t FindAndCompress(uint32_t x);

  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  uint32_t num_sets_;
};

}  // namespace netclus

#endif  // NETCLUS_CORE_UNION_FIND_H_
