#include "core/clustering.h"

#include <cstddef>
#include <unordered_map>

namespace netclus {

void NormalizeClustering(Clustering* c, uint32_t min_size) {
  std::vector<int>& ids = c->assignment;
  const size_t n = ids.size();
  // The count and renumbering tables below are indexed by id, so ids
  // must lie in [0, n). Every algorithm here numbers clusters below the
  // point count; anything else is first compacted, in first-appearance
  // order, which leaves the result unchanged.
  bool compact = true;
  for (int id : ids) {
    if (id != kNoise && (id < 0 || static_cast<size_t>(id) >= n)) {
      compact = false;
      break;
    }
  }
  if (!compact) {
    std::unordered_map<int, int> dense;
    for (int& id : ids) {
      if (id == kNoise) continue;
      id = dense.emplace(id, static_cast<int>(dense.size())).first->second;
    }
  }
  std::vector<uint32_t> counts(n, 0);
  for (int id : ids) {
    if (id != kNoise) ++counts[static_cast<size_t>(id)];
  }
  std::vector<int> remap(n, kNoise);
  int next = 0;
  for (int& id : ids) {
    if (id == kNoise) continue;
    if (counts[static_cast<size_t>(id)] < min_size) {
      id = kNoise;
      continue;
    }
    int& renumbered = remap[static_cast<size_t>(id)];
    if (renumbered == kNoise) renumbered = next++;
    id = renumbered;
  }
  c->num_clusters = next;
}

}  // namespace netclus
