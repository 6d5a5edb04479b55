// EpochSnapshot: one immutable, self-owning epoch of the served world —
// the CSR graph with the point set it co-owns, the optional cached
// clustering, and a NetworkView stitched over them.
//
// The query server never lets a query touch the live (mutating) Network.
// Instead the updater thread materializes these snapshots and publishes
// them through the EpochManager (server/epoch_manager.h); queries run
// against the snapshot's SnapshotView + FrozenGraph pair, which is
// frozen forever — every byte a query can reach is immutable after
// construction, so snapshots are shared across worker threads with no
// synchronization beyond the shared_ptr each reader holds.
#ifndef NETCLUS_SERVER_SNAPSHOT_H_
#define NETCLUS_SERVER_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/frozen_graph.h"
#include "graph/network.h"
#include "graph/network_view.h"
#include "netclus.h"
#include "server/distance_cache.h"
#include "server/identity_map.h"

namespace netclus {

/// \brief NetworkView over a frozen graph and the point set it co-owns.
///
/// Unlike InMemoryNetworkView, which reads through a live Network that
/// may be mutating underneath it, every accessor here resolves against
/// the immutable snapshot: adjacency and edge weights from the
/// FrozenGraph CSR, positions / edge points / groups from its PointSet.
/// The view co-owns the graph, so it remains valid for as long as any
/// copy of it (or its EpochSnapshot) lives.
class SnapshotView final : public NetworkView {
 public:
  explicit SnapshotView(std::shared_ptr<const FrozenGraph> graph)
      : graph_(std::move(graph)) {}

  NodeId num_nodes() const override { return graph_->num_nodes(); }
  PointId num_points() const override { return points().size(); }
  void ForEachNeighbor(
      NodeId n,
      const std::function<void(NodeId, double)>& fn) const override {
    graph_->ForEachNeighbor(n, fn);
  }
  double EdgeWeight(NodeId a, NodeId b) const override {
    return graph_->EdgeWeight(a, b);
  }
  PointPos PointPosition(PointId p) const override {
    return points().position(p);
  }
  void GetEdgePoints(NodeId a, NodeId b,
                     std::vector<EdgePoint>* out) const override;
  void ForEachPointGroup(
      const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn)
      const override;

  const FrozenGraph& frozen() const { return *graph_; }
  const PointSet& points() const { return graph_->points(); }

 private:
  std::shared_ptr<const FrozenGraph> graph_;
};

/// \brief One published epoch: id + the immutable world it serves.
///
/// Owned by shared_ptr from the EpochManager (while current) and from
/// every in-flight reader drain; the last owner to let go frees it (see
/// epoch_manager.h for the lifecycle). Not copyable or movable.
class EpochSnapshot {
 public:
  /// `clusters` may be null (membership queries then fail NotFound).
  /// `cache` may be null (no distance memoization for this epoch). The
  /// cache keys on durable ObjectIds, so the publisher may hand the
  /// SAME cache to consecutive epochs whenever the metric is unchanged
  /// (point-only mutations) — warm entries survive republication. Any
  /// mutation that changes edge weights must publish a fresh cache.
  /// `ids` is this epoch's ObjectId <-> dense-PointId map; null means
  /// the identity mapping (exact for a standalone snapshot or a boot
  /// epoch, where point ObjectIds are assigned in dense order).
  /// `freed_counter` (shared so it may outlive the manager) is bumped by
  /// the destructor — the observable "drained epoch actually freed"
  /// signal the epoch-swap tests assert on.
  EpochSnapshot(uint64_t epoch, std::shared_ptr<const FrozenGraph> graph,
                std::shared_ptr<const ClusterOutput> clusters,
                std::shared_ptr<const DistanceCache> cache,
                std::shared_ptr<std::atomic<uint64_t>> freed_counter,
                std::shared_ptr<const IdentityMap> ids = nullptr);
  ~EpochSnapshot();

  EpochSnapshot(const EpochSnapshot&) = delete;
  EpochSnapshot& operator=(const EpochSnapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const SnapshotView& view() const { return view_; }
  const FrozenGraph& frozen() const { return view_.frozen(); }
  /// Null when the server runs without a cluster_spec.
  const ClusterOutput* clusters() const { return clusters_.get(); }
  /// This epoch's distance cache; null when caching is disabled. Keys
  /// are ObjectId pairs, so entries stay meaningful across epochs and a
  /// metric-preserving republication may share the cache with its
  /// predecessor — drains still serving an old epoch then read and write
  /// the same (still correct) distances as the new one.
  const DistanceCache* cache() const { return cache_.get(); }
  /// This epoch's ObjectId <-> dense-PointId map; null means identity.
  const IdentityMap* ids() const { return ids_.get(); }

 private:
  // Republish builds the same epoch over another graph from these.
  friend class EpochManager;

  uint64_t epoch_;
  std::shared_ptr<const ClusterOutput> clusters_;
  std::shared_ptr<const DistanceCache> cache_;
  std::shared_ptr<const IdentityMap> ids_;
  SnapshotView view_;  ///< co-owns the graph, and through it the points
  std::shared_ptr<std::atomic<uint64_t>> freed_counter_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_SNAPSHOT_H_
