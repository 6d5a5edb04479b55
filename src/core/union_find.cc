#include "core/union_find.h"

namespace netclus {

UnionFind::UnionFind(uint32_t n)
    : parent_(n), size_(n, 1), num_sets_(n) {
  for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
}

uint32_t UnionFind::FindAndCompress(uint32_t x) {
  uint32_t root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    uint32_t next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

bool UnionFind::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a), rb = Find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) {
    uint32_t tmp = ra;
    ra = rb;
    rb = tmp;
  }
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --num_sets_;
  return true;
}

}  // namespace netclus
