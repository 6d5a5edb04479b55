#include "server/snapshot.h"

namespace netclus {

void SnapshotView::GetEdgePoints(NodeId a, NodeId b,
                                 std::vector<EdgePoint>* out) const {
  out->clear();
  const PointSet& ps = points();
  auto [first, count] = ps.EdgePointRange(a, b);
  for (uint32_t i = 0; i < count; ++i) {
    out->push_back(EdgePoint{first + i, ps.offset(first + i)});
  }
}

void SnapshotView::ForEachPointGroup(
    const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn) const {
  const PointSet& ps = points();
  for (size_t i = 0; i < ps.num_groups(); ++i) {
    const PointSet::Group& g = ps.group(i);
    fn(g.u, g.v, g.first, g.count);
  }
}

EpochSnapshot::EpochSnapshot(
    uint64_t epoch, std::shared_ptr<const FrozenGraph> graph,
    std::shared_ptr<const ClusterOutput> clusters,
    std::shared_ptr<const DistanceCache> cache,
    std::shared_ptr<std::atomic<uint64_t>> freed_counter,
    std::shared_ptr<const IdentityMap> ids)
    : epoch_(epoch),
      clusters_(std::move(clusters)),
      cache_(std::move(cache)),
      ids_(std::move(ids)),
      view_(std::move(graph)),
      freed_counter_(std::move(freed_counter)) {}

EpochSnapshot::~EpochSnapshot() {
  if (freed_counter_ != nullptr) {
    freed_counter_->fetch_add(1, std::memory_order_release);
  }
}

}  // namespace netclus
