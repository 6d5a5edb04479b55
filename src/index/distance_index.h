// DistanceIndex: an inert stub. No algorithm reads a distance index
// (DESIGN.md §10). The names below stay only because perfbench compiles
// against them; each is inert.
#ifndef NETCLUS_INDEX_DISTANCE_INDEX_H_
#define NETCLUS_INDEX_DISTANCE_INDEX_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/network_view.h"

namespace netclus {

/// \brief Inert: nothing reads these fields (ClusterSpec::index). Kept
/// only for perfbench.
struct IndexOptions {
  bool enable = false;
  uint32_t num_landmarks = 8;
  uint32_t num_threads = 0;
};

/// \brief Inert: always zero (ClusterOutput::index_stats). Kept only for
/// perfbench.
struct IndexStats {
  uint32_t num_landmarks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// \brief Inert: an empty index. Kept only for perfbench.
class DistanceIndex {
 public:
  /// Checks `view.status()` and returns an empty index; builds nothing.
  static Result<std::unique_ptr<DistanceIndex>> Build(
      const NetworkView& view, const IndexOptions& /*options*/,
      ThreadPool* /*pool*/) {
    NETCLUS_RETURN_IF_ERROR(view.status());
    return std::make_unique<DistanceIndex>();
  }
};

}  // namespace netclus

#endif  // NETCLUS_INDEX_DISTANCE_INDEX_H_
