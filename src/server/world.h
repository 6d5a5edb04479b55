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
// into the last successful Build's PointSet, carries that Build's
// identity map through the merge, shares its CSR adjacency when no edge
// was added since (and shifts it by the new edges' slots when one was),
// and (ε-Link specs) merges only the components the new mutations link,
// in a union-find kept across builds (DESIGN.md §16). The result is bit
// for bit what BuildFull returns; with `validate` set every incremental
// stage is checked against it. The world keeps its edges in admission
// order with their ObjectIds, so a checkpoint copies them as they are.
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
#include "core/union_find.h"
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
  /// leaving the base, the ε-Link forest and the distance cache alone:
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
  World(Network net, CheckpointState state, WorldOptions options);

  /// The PointSet over every point record, and the record each of its
  /// dense points came from in `record_of_point`. With `merge` only the
  /// records beyond the base are merged into the base's set,
  /// `base_to_final` receives each base point's new dense id and
  /// `added_points` the new points' dense ids in record order; the base
  /// points' records are carried over from the base's.
  Result<PointSet> BuildPoints(bool merge,
                               std::vector<uint32_t>* record_of_point,
                               std::vector<PointId>* base_to_final,
                               std::vector<PointId>* added_points) const;
  /// The identity map built from the records: dense point p carries
  /// record_of_point[p]'s ObjectId.
  IdentityMap FreshIdentityMap(
      const std::vector<uint32_t>& record_of_point) const;
  /// The points, identity map and CSR graph of the next epoch: built
  /// from scratch, or, when `incremental`, the points merged onto the
  /// base's, its identity map carried and its adjacency shared or
  /// shifted by `added_edges`, the edges applied since the base, in
  /// Apply order.
  Result<Epoch> BuildPointsAndGraph(bool incremental,
                                    const std::vector<Edge>& added_edges,
                                    std::vector<uint32_t>* record_of_point,
                                    std::vector<PointId>* added_points) const;
  /// The epoch's clustering over `graph`, the snapshot of `view`.
  /// ε-Link specs merge the links the unpublished mutations add (the new
  /// points are `added_points`) into a seeded forest when `incremental`,
  /// and seed it from one full run otherwise; others run RunClustering.
  Result<ClusterOutput> Recluster(const NetworkView& view,
                                  const FrozenGraph& graph,
                                  const std::vector<uint32_t>& record_of_point,
                                  const std::vector<PointId>& added_points,
                                  bool incremental, bool* merged);
  /// The base's landmark tables carried onto `graph`, the next epoch's
  /// graph, which adds `added_edges` (this Build's unpublished edges) to
  /// the base's adjacency; checked against fresh tables when validating.
  Result<std::shared_ptr<const LandmarkTables>> CarryLandmarks(
      const FrozenGraph& graph, const std::vector<Edge>& added_edges) const;
  /// Labels every dense point with its forest component, numbered in
  /// order of first appearance, or kNoise below `min_sup` points: what
  /// ε-Link returns for the components the forest holds.
  void LabelComponents(const std::vector<uint32_t>& record_of_point,
                       uint32_t min_sup, Clustering* out);

  WorldOptions options_;
  Network net_;
  /// Every point ever admitted, in admission order, with its ObjectId.
  std::vector<CheckpointPoint> points_;
  /// Every edge, in admission order (see Checkpoint), with its ObjectId.
  std::vector<CheckpointEdge> edges_;
  uint64_t next_object_id_ = 0;

  /// Mutations applied since the last successful Build.
  std::vector<NetworkUpdate> unpublished_;

  // The merge base: the last successful Build's graph, its points, its
  // identity map and the record each of its points came from. Null
  // before the first. Its landmark tables, once BuildLandmarks made
  // them, are the world's: a Build hands them on with the adjacency.
  std::shared_ptr<const FrozenGraph> base_graph_;
  std::shared_ptr<const IdentityMap> base_ids_;
  std::vector<uint32_t> base_record_of_point_;

  // ε-Link components across builds: a forest over point record
  // indices, which stay stable across dense renumbering because records
  // only grow. Its sets are exactly the connected components of the
  // "within eps" graph over the base, components below min_sup
  // included.
  UnionFind components_{0};
  bool components_seeded_ = false;
  /// LabelComponents' tables, kept across builds so labelling allocates
  /// none: each dense point's forest root, and each root's first dense
  /// point.
  std::vector<uint32_t> root_of_point_;
  std::vector<uint32_t> first_point_of_root_;
  /// Recluster's traversal state, kept so a Build allocates none.
  TraversalWorkspace recluster_ws_;

  /// The last Build's distance cache, handed on while the metric holds.
  std::shared_ptr<const DistanceCache> live_cache_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_WORLD_H_
