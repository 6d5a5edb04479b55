#include "index/distance_index.h"

#include <utility>

#include "graph/frozen_graph.h"
#include "graph/network.h"

namespace netclus {

Result<std::unique_ptr<DistanceIndex>> DistanceIndex::Build(
    const NetworkView& view, const IndexOptions& options, ThreadPool* pool) {
  // The landmark SSSPs walk the whole graph several times; for an
  // in-memory view one snapshot up front is cheaper than calling through
  // the view for every neighbor, and the contents are bit-identical. A
  // disk-backed view is walked directly.
  if (const InMemoryNetworkView* mem = view.AsInMemory()) {
    NETCLUS_ASSIGN_OR_RETURN(FrozenGraph frozen, mem->Freeze());
    return Build(view, frozen, options, pool);
  }
  return Build(view, view, options, pool);
}

template <TraversalGraph Graph>
Result<std::unique_ptr<DistanceIndex>> DistanceIndex::Build(
    const NetworkView& view, const Graph& graph, const IndexOptions& options,
    ThreadPool* pool) {
  NETCLUS_RETURN_IF_ERROR(view.status());
  NETCLUS_ASSIGN_OR_RETURN(
      LandmarkOracle landmarks,
      LandmarkOracle::Build(view, graph, options.num_landmarks, pool));
  auto index = std::make_unique<DistanceIndex>(std::move(landmarks));
  NETCLUS_RETURN_IF_ERROR(view.status());
  return index;
}

template Result<std::unique_ptr<DistanceIndex>> DistanceIndex::Build(
    const NetworkView&, const FrozenGraph&, const IndexOptions&, ThreadPool*);
template Result<std::unique_ptr<DistanceIndex>> DistanceIndex::Build(
    const NetworkView&, const NetworkView&, const IndexOptions&, ThreadPool*);

IndexStats DistanceIndex::Stats() const {
  IndexStats stats;
  stats.num_landmarks = landmarks_.num_landmarks();
  return stats;
}

}  // namespace netclus
