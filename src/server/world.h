// World: the served world of a QueryServer and the builder of its
// epochs.
//
// The world is the paper's Definition 1 — a network plus the objects on
// its edges — with the durable identity of every object: each point and
// edge takes the next ObjectId from a monotone watermark when admitted.
// Mutations (Apply) only add edges, or points on existing edges. Build
// turns the world into the immutable pieces of the next epoch, which
// the server wraps in an EpochSnapshot and publishes.
//
// Every Build after the first is incremental: it merges the new points
// into the last successful Build's PointSet, which describes its
// renumbering once (the new points' dense ids and the groups they
// opened; graph/renumbering.h). That description carries the Build's
// identity map and point handle in run copies, with no per-point table
// or gather. The CSR adjacency is shared when no edge was added since,
// and shifted by the new edges' slots when one was. For ε-Link specs the
// base's components are carried by component, not by point: the new
// links are merged in a union-find over only the components they touch
// and the new points, and one pass of run copies relabels every point
// through an old → new component table (DESIGN.md §16). The result is
// bit for bit what BuildFull returns; with `validate` set every
// incremental stage is checked against it. The world keeps its edges in
// admission order with their ObjectIds, so a checkpoint copies them as
// they are.
//
// A World is single-threaded: no locks, no threads. In a QueryServer
// only the updater thread (and Start, before it) touches it.
#ifndef NETCLUS_SERVER_WORLD_H_
#define NETCLUS_SERVER_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network.h"
#include "netclus.h"
#include "server/distance_cache.h"
#include "server/identity_map.h"
#include "server/update.h"
#include "server/wal.h"

namespace netclus {

/// \brief What every epoch of a World carries.
struct WorldOptions {
  /// When set, every epoch carries a ClusterOutput of this spec.
  std::optional<ClusterSpec> cluster_spec;
  /// Capacity of the ObjectId-keyed distance cache each epoch carries;
  /// 0 = no cache.
  size_t cache_capacity = 1 << 16;
  /// Check every incremental stage (PointSet merge, shared CSR, ε-Link
  /// re-cluster) against its full build and fail the Build on any
  /// divergence. The spec's own `validate` also turns on the re-cluster
  /// check.
  bool validate = false;
};

/// \brief The mutable served world; see the file comment.
class World {
 public:
  /// The immutable pieces of one epoch, plus how they were built.
  struct Epoch {
    /// Shares the previous epoch's adjacency when no edge was added
    /// since it was built; co-owns the epoch's PointSet (points()).
    std::shared_ptr<const FrozenGraph> graph;
    /// Carried from the previous epoch's map after the first build.
    std::shared_ptr<const IdentityMap> ids;
    /// Null without a cluster_spec.
    std::shared_ptr<const ClusterOutput> clusters;
    /// Null when cache_capacity is 0. Shared with the previous epoch
    /// when no edge was added since it was built, fresh otherwise.
    std::shared_ptr<const DistanceCache> cache;
    /// Built onto the previous build (false: full build).
    bool incremental = false;
    /// The ε-Link clustering merged only the new links.
    bool recluster_incremental = false;
    /// Stage wall times: PointSet plus identity map, CSR, clustering,
    /// and the landmark carry (0 unless an edge was added onto a base
    /// with tables; its oracle included when validating).
    double points_ms = 0.0;
    double csr_ms = 0.0;
    double recluster_ms = 0.0;
    double landmarks_ms = 0.0;
    /// An added edge shortened a landmark label, so the carry repaired a
    /// copy of the base's tables instead of sharing them.
    bool landmarks_repaired = false;
  };

  /// The world of `net` and `points`, installed as the checkpoint state
  /// that describes it: points take ObjectIds 0..n-1 in dense order (the
  /// first epoch's identity map is the identity), edges the next ids in
  /// Edges() order, which is also the order the world lists them in.
  /// `net` is kept as is, adjacency order included.
  static World Boot(Network net, const PointSet& points,
                    WorldOptions options);

  /// The world a checkpoint holds: its network rebuilt from the edge
  /// list, in the list's order, its points, ids and watermark.
  static Result<World> Restore(const CheckpointState& state,
                               WorldOptions options);

  /// Applies one mutation, allocating the new object's ObjectId on
  /// success; a rejected mutation (kInvalidArgument) allocates none and
  /// changes nothing. Visible from the next Build on.
  Status Apply(const NetworkUpdate& update);

  /// The next epoch: a full build the first time, incremental onto the
  /// last successful Build afterwards. A failed Build changes nothing,
  /// so its mutations ride along with the next one.
  Result<Epoch> Build();

  /// The next epoch built from scratch (RunClustering for the spec),
  /// leaving the base, its ε-Link components and the distance cache alone:
  /// what every incremental Build must equal. Its graph carries no
  /// landmark tables.
  Result<Epoch> BuildFull() const;

  /// Builds landmark tables (graph/landmarks.h) for the last successful
  /// Build's graph and makes that graph, now carrying them, the base:
  /// every later Build carries them on, sharing them across points-only
  /// builds and checking (and, where an added edge shortened a label,
  /// repairing) them on AddEdge builds. Returns the base graph with the
  /// tables, to republish in place of the one without: same points,
  /// adjacency and answers. Null before the first Build, or when the
  /// base already carries tables. No Build builds tables by itself.
  std::shared_ptr<const FrozenGraph> BuildLandmarks();

  /// The world as a checkpoint stores it; `generation` and `covers_seq`
  /// are the caller's to fill in. Edges are listed in admission order:
  /// the boot edges in Edges() order (or a restored checkpoint's in its
  /// order), then each added edge as Apply admitted it.
  CheckpointState Checkpoint() const;

  NodeId num_nodes() const { return net_.num_nodes(); }

 private:
  // ε-Link components of the base epoch: the connected components of
  // the "within eps" graph over its points, numbered by their first
  // dense id (ε-Link's numbering at min_sup 1). Components below min_sup
  // are kept: insert-only mutations can grow them past it.
  struct Components {
    bool seeded = false;
    /// Each dense point's component when min_sup > 1. At min_sup 1 the
    /// published clustering is the components, so it is read instead.
    std::vector<int> of_point;
    /// Each component's first dense id, ascending, and its point count.
    std::vector<PointId> first;
    std::vector<uint32_t> size;
  };

  World(Network net, CheckpointState state, WorldOptions options);

  /// The PointSet over every point record, and the record each of its
  /// dense points came from in `record_of_point`.
  Result<PointSet> FullPoints(std::vector<uint32_t>* record_of_point) const;
  /// The identity map built from the records: dense point p carries
  /// record_of_point[p]'s ObjectId.
  IdentityMap FreshIdentityMap(
      const std::vector<uint32_t>& record_of_point) const;
  /// The points, identity map and CSR graph of the next epoch: built
  /// from scratch, or, when `incremental`, the records beyond the base
  /// merged into the base's points (`merge` receives how that renumbered
  /// them), its identity map carried through that renumbering and its
  /// adjacency shared or shifted by `added_edges`, the edges applied
  /// since the base, in Apply order.
  Result<Epoch> BuildPointsAndGraph(bool incremental,
                                    const std::vector<Edge>& added_edges,
                                    PointSetMerge* merge) const;
  /// The epoch's clustering over `graph`, the snapshot of `view`.
  /// ε-Link specs write the next epoch's components to
  /// `next_components_`: when `incremental`, the base's carried through
  /// `added` (the new points' dense ids) with the links the unpublished
  /// mutations add merged in; otherwise read off one full run. Others
  /// run RunClustering.
  Result<ClusterOutput> Recluster(const NetworkView& view,
                                  const FrozenGraph& graph,
                                  const Renumbering& added, bool incremental,
                                  bool* merged);
  /// The base's landmark tables carried onto `graph`, the next epoch's
  /// graph, which adds `added_edges` (this Build's unpublished edges) to
  /// the base's adjacency; checked against fresh tables when validating.
  Result<std::shared_ptr<const LandmarkTables>> CarryLandmarks(
      const FrozenGraph& graph, const std::vector<Edge>& added_edges) const;

  WorldOptions options_;
  Network net_;
  /// Every point ever admitted, in admission order, with its ObjectId.
  std::vector<CheckpointPoint> points_;
  /// Every edge, in admission order (see Checkpoint), with its ObjectId.
  std::vector<CheckpointEdge> edges_;
  uint64_t next_object_id_ = 0;

  /// Mutations applied since the last successful Build.
  std::vector<NetworkUpdate> unpublished_;

  // The merge base: the last successful Build's graph (which co-owns its
  // points), its identity map and, for ε-Link specs, its clustering and
  // components. Null before the first. Its landmark tables, once
  // BuildLandmarks made them, are the world's: a Build hands them on
  // with the adjacency.
  std::shared_ptr<const FrozenGraph> base_graph_;
  std::shared_ptr<const IdentityMap> base_ids_;
  std::shared_ptr<const ClusterOutput> base_clusters_;
  Components components_;
  /// Recluster's output, installed as components_ when its Build
  /// succeeds; the two swap, so a carry allocates nothing once warm.
  Components next_components_;
  /// Recluster's scratch: each base component's number in the next
  /// epoch.
  std::vector<uint32_t> renumbered_component_;
  /// Recluster's traversal state, kept so a Build allocates none.
  TraversalWorkspace recluster_ws_;

  /// The last Build's distance cache, handed on while the metric holds.
  std::shared_ptr<const DistanceCache> live_cache_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_WORLD_H_
