// FrozenGraph: an immutable struct-of-arrays CSR snapshot of an
// in-memory network's adjacency structure, over the PointSet it was
// built for.
//
// Every algorithm in the paper is a Dijkstra traversal, and the
// traversal inner loop is exactly "for each neighbor of the popped
// node". Behind NetworkView that loop pays a virtual call plus a
// std::function invocation per neighbor over vector-of-vectors
// adjacency; FrozenGraph replaces it with a contiguous pointer walk
// the compiler can inline. The snapshot stores, per half-edge slot:
//
//   offsets[n] .. offsets[n+1]     slots of node n's neighbors
//   neighbors[i]                   the neighbor id
//   weights[i]                     the edge weight
//   slot_group[i]                  1 + the index of the PointSet group
//                                  on that edge, or 0 when it holds none
//
// and, per PointSet group g, group_weight[g]: the weight of the g-th
// point-bearing edge, so a group scan reads no CSR row.
//
// The first three arrays form one immutable adjacency block behind a
// shared_ptr: a snapshot of the same network with other points on it
// (WithPoints) shares the block instead of copying it. The last two
// form the point handle, also immutable and shared: the handle names
// groups, not point ids, so a batch that only adds points to edges that
// already hold some leaves it as it is, and a batch that opens groups
// remaps it in one linear pass past the opened groups. The points
// themselves are not copied either: the snapshot co-owns the PointSet
// (paper Section 4.1's points file) and the traversal algorithms read
// its offsets in place (graph/edge_points.h). Only an
// InMemoryNetworkView is ever frozen: a disk-backed view is traversed
// directly, so the Section 5.2 experiments count the algorithms' own
// page reads rather than one copy of the whole adjacency file.
//
// The neighbor order of each node matches the source view's iteration
// order exactly, so a traversal over the snapshot settles nodes, pushes
// heap entries, and breaks distance ties in the same sequence as one
// over the live view — clustering trajectories stay bit-identical.
// See DESIGN.md section 11.
#ifndef NETCLUS_GRAPH_FROZEN_GRAPH_H_
#define NETCLUS_GRAPH_FROZEN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/renumbering.h"
#include "graph/types.h"

namespace netclus {

class LandmarkTables;
class Network;
class PointSet;

/// \brief Immutable CSR adjacency snapshot; cheap to share read-only
/// across threads (all state is set once at materialization).
class FrozenGraph {
 public:
  /// An empty snapshot (0 nodes). Assign a materialized one over it.
  FrozenGraph() = default;

  NodeId num_nodes() const {
    return adj_ == nullptr ? 0
                           : static_cast<NodeId>(adj_->offsets.size() - 1);
  }

  /// Number of half-edges (2x the undirected edge count).
  size_t num_half_edges() const {
    return adj_ == nullptr ? 0 : adj_->neighbors.size();
  }

  uint32_t degree(NodeId n) const {
    return adj_->offsets[n + 1] - adj_->offsets[n];
  }

  /// Invokes `fn(neighbor, weight)` for every edge incident to `n`, in
  /// the source view's iteration order. This is the de-virtualized hot
  /// loop: a plain pointer walk over two parallel arrays.
  template <typename Fn>
  void ForEachNeighbor(NodeId n, Fn&& fn) const {
    const Adjacency& a = *adj_;
    const uint32_t first = a.offsets[n];
    const uint32_t last = a.offsets[n + 1];
    const NodeId* nb = a.neighbors.data();
    const double* w = a.weights.data();
    for (uint32_t i = first; i < last; ++i) fn(nb[i], w[i]);
  }

  /// Weight of edge {a, b}; negative when absent. O(min(deg a, deg b))
  /// contiguous scan — no hash table, and for road-like networks the
  /// degree is a small constant.
  double EdgeWeight(NodeId a, NodeId b) const;
  bool HasEdge(NodeId a, NodeId b) const { return EdgeWeight(a, b) >= 0.0; }

  /// Points on edge {a, b} as [first, first + count); count == 0 when
  /// the edge holds none (or the edge is absent).
  std::pair<PointId, uint32_t> EdgePointRange(NodeId a, NodeId b) const;

  /// True when the snapshot carries its points: every materialized
  /// snapshot does, only a default-constructed one does not.
  bool has_point_layer() const { return points_ != nullptr; }
  /// The PointSet the snapshot was built over, which it co-owns.
  const PointSet& points() const { return *points_; }
  /// Weight of the PointSet's g-th group's edge: the very double
  /// EdgeWeight(u, v) returns.
  double group_weight(size_t g) const { return handle_->group_weight[g]; }
  /// Heap bytes of the point handle: one uint32 per half-edge slot and
  /// one weight per group. A points-only successor that opened no group
  /// co-owns the same handle; the adjacency block and the PointSet are
  /// co-owned too and not counted.
  size_t own_bytes() const {
    return handle_ == nullptr
               ? 0
               : handle_->slot_group.size() * sizeof(uint32_t) +
                     handle_->group_weight.size() * sizeof(double);
  }

  /// Builds a snapshot of `net`'s adjacency rows over `points` (not
  /// null), whose edges must all be `net`'s. Cannot fail.
  static FrozenGraph Materialize(const Network& net,
                                 std::shared_ptr<const PointSet> points);

  /// The snapshot of `points` over this materialized snapshot's
  /// adjacency, which it shares instead of copying: what Materialize
  /// returns for a network that still has exactly this adjacency, row
  /// order included (no edge added since). `points` must hold every
  /// group of this snapshot's PointSet in order, with the groups at
  /// `opened` between them (a PointSetBuilder::Merge onto it, whose
  /// PointSetMerge::groups this is); the group count is checked, the
  /// groups themselves in debug and validate builds. When no group
  /// opened the point handle is shared too; otherwise each slot's group
  /// is remapped past the opened ones (graph/renumbering.h) and only
  /// their edges are looked up in their rows. The landmark tables ride
  /// along: the adjacency they describe is the same.
  FrozenGraph WithPoints(std::shared_ptr<const PointSet> points,
                         const Renumbering& opened) const;

  /// The snapshot of this one's network after Network::AddEdge applied
  /// `added`, in this order, over the same PointSet: what Materialize
  /// returns for it. AddEdge appends each edge's slot to the end of both
  /// endpoint rows, so the new adjacency is this one shifted: each row
  /// moves by the new slots of the rows before it, and the slots and the
  /// point handle are copied in runs with each new slot (which holds no
  /// point) at the end of its row. The edges must be new to this
  /// snapshot. The result carries no landmark tables: carrying them
  /// over the new edges is LandmarkTables::Carry's job.
  FrozenGraph WithEdges(const std::vector<Edge>& added) const;

  /// The landmark tables the point-to-point search prunes with
  /// (graph/landmarks.h); null when the snapshot carries none.
  const LandmarkTables* landmarks() const { return landmarks_.get(); }
  const std::shared_ptr<const LandmarkTables>& shared_landmarks() const {
    return landmarks_;
  }

  /// This snapshot carrying `tables`, which must be exact for its
  /// adjacency (built or carried for it): a new immutable value that
  /// shares the adjacency, points and point handle. Answers do not
  /// change; the point-to-point search only settles fewer nodes.
  FrozenGraph WithLandmarks(std::shared_ptr<const LandmarkTables> tables) const;

  /// True when both snapshots hold the very same adjacency block.
  bool SharesAdjacencyWith(const FrozenGraph& other) const {
    return adj_ == other.adj_;
  }

  /// True when both snapshots hold the very same point handle.
  bool SharesPointHandleWith(const FrozenGraph& other) const {
    return handle_ == other.handle_;
  }

  /// True when every array (offsets, neighbors, weight bit patterns,
  /// slot groups, group weight bit patterns) and the PointSet match
  /// exactly — the NETCLUS_VALIDATE oracle that a shared adjacency and
  /// a carried point handle are still the network's. Landmark tables are
  /// not compared: they change no answer, and World checks carried ones
  /// against fresh searches.
  bool BitIdenticalTo(const FrozenGraph& other) const;

  /// Test-only: overwrites half-edge slot `i` of a private copy of the
  /// adjacency so validator-rejection paths can be exercised. Never call
  /// outside tests.
  void CorruptHalfEdgeForTest(size_t i, NodeId neighbor, double weight) {
    auto copy = std::make_shared<Adjacency>(*adj_);
    copy->neighbors[i] = neighbor;
    copy->weights[i] = weight;
    adj_ = std::move(copy);
  }

 private:
  // The CSR rows. Immutable once built, so the snapshots of epochs that
  // added no edge share one block; null only in a default-constructed
  // snapshot.
  struct Adjacency {
    std::vector<uint32_t> offsets;  // |V| + 1
    std::vector<NodeId> neighbors;  // 2|E|
    std::vector<double> weights;    // 2|E|
  };

  // Where each slot's points are. Immutable once built, so the snapshots
  // of epochs that opened no group share one; null only in a
  // default-constructed snapshot.
  struct PointHandle {
    std::vector<uint32_t> slot_group;  // 2|E|: 1 + group index, 0 = none
    std::vector<double> group_weight;  // per PointSet group
  };

  // Slot index of neighbor `b` in `a`'s CSR row; SIZE_MAX when absent.
  size_t SlotOf(NodeId a, NodeId b) const;

  // Records group g of points_ in both half-edge slots of its edge and
  // its weight in `handle`.
  void AttachGroup(uint32_t g, PointHandle* handle) const;

  std::shared_ptr<const Adjacency> adj_;
  std::shared_ptr<const PointSet> points_;
  std::shared_ptr<const PointHandle> handle_;
  std::shared_ptr<const LandmarkTables> landmarks_;
};

/// Neighbor-iteration adapter the template traversal kernel dispatches
/// through (see graph/dijkstra.h): the FrozenGraph side inlines the CSR
/// pointer walk with no virtual dispatch and no std::function.
template <typename Fn>
inline void VisitNeighbors(const FrozenGraph& g, NodeId n, Fn&& fn) {
  g.ForEachNeighbor(n, std::forward<Fn>(fn));
}

}  // namespace netclus

#endif  // NETCLUS_GRAPH_FROZEN_GRAPH_H_
