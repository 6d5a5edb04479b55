// FrozenGraph: an immutable struct-of-arrays CSR snapshot of an
// in-memory network's adjacency structure, plus a flat copy of the
// points lying on it.
//
// Every algorithm in the paper is a Dijkstra traversal, and the
// traversal inner loop is exactly "for each neighbor of the popped
// node". Behind NetworkView that loop pays a virtual call plus a
// std::function invocation per neighbor over vector-of-vectors
// adjacency; FrozenGraph replaces it with a contiguous pointer walk
// the compiler can inline. The snapshot stores, per half-edge slot:
//
//   offsets_[n] .. offsets_[n+1]   slots of node n's neighbors
//   neighbors_[i]                  the neighbor id
//   weights_[i]                    the edge weight
//   pt_first_[i], pt_count_[i]     points on that edge (id range), or
//                                  (kInvalidPointId, 0) when none
//
// and, as the point layer:
//
//   pt_offset_[p]                  offset of point p from its edge's
//                                  smaller-id endpoint
//   groups_[g]                     (u, v, first, count, weight) of the
//                                  g-th point-bearing edge, in PointSet
//                                  group order
//
// The traversal algorithms read edge points from the layer in place
// (graph/edge_points.h). Only an InMemoryNetworkView is ever frozen: a
// disk-backed view is traversed directly, so the Section 5.2 experiments
// count the algorithms' own page reads rather than one copy of the
// whole adjacency file.
//
// The neighbor order of each node matches the source view's iteration
// order exactly, so a traversal over the snapshot settles nodes, pushes
// heap entries, and breaks distance ties in the same sequence as one
// over the live view — clustering trajectories stay bit-identical.
// See DESIGN.md section 11.
#ifndef NETCLUS_GRAPH_FROZEN_GRAPH_H_
#define NETCLUS_GRAPH_FROZEN_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace netclus {

class InMemoryNetworkView;
class PointSet;

/// \brief Immutable CSR adjacency snapshot; cheap to share read-only
/// across threads (all state is set once at materialization).
class FrozenGraph {
 public:
  /// An empty snapshot (0 nodes). Assign a materialized one over it.
  FrozenGraph() = default;

  NodeId num_nodes() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of half-edges (2x the undirected edge count).
  size_t num_half_edges() const { return neighbors_.size(); }

  uint32_t degree(NodeId n) const { return offsets_[n + 1] - offsets_[n]; }

  /// Invokes `fn(neighbor, weight)` for every edge incident to `n`, in
  /// the source view's iteration order. This is the de-virtualized hot
  /// loop: a plain pointer walk over two parallel arrays.
  template <typename Fn>
  void ForEachNeighbor(NodeId n, Fn&& fn) const {
    const uint32_t first = offsets_[n];
    const uint32_t last = offsets_[n + 1];
    const NodeId* nb = neighbors_.data();
    const double* w = weights_.data();
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

  /// One point-bearing edge of the point layer: points
  /// [first, first + count) lie on edge (u, v), u < v, of weight
  /// `weight`.
  struct PointGroup {
    NodeId u = kInvalidNodeId;
    NodeId v = kInvalidNodeId;
    PointId first = kInvalidPointId;
    uint32_t count = 0;
    double weight = 0.0;
  };

  /// True when the snapshot carries the point ranges and the point
  /// layer: every materialized snapshot does, only a default-constructed
  /// one does not.
  bool has_point_layer() const { return !offsets_.empty(); }
  /// Offset of every point from its edge's smaller-id endpoint, indexed
  /// by point id; ascending within each edge.
  const std::vector<double>& point_offsets() const { return pt_offset_; }
  /// The point-bearing edges in PointSet group order (ascending first
  /// point id).
  const std::vector<PointGroup>& point_groups() const { return groups_; }
  /// Heap bytes held by the point layer.
  size_t point_layer_bytes() const {
    return pt_offset_.size() * sizeof(double) +
           groups_.size() * sizeof(PointGroup);
  }

  /// Builds a snapshot of an in-memory view, copied straight out of its
  /// Network adjacency rows and PointSet, point layer included. Cannot
  /// fail.
  static FrozenGraph Materialize(const InMemoryNetworkView& view);

  /// Incremental rebuild: produces the same snapshot Materialize(view)
  /// would, but copies the CSR rows of nodes NOT flagged in `dirty`
  /// straight out of `prev` (the retiring epoch's snapshot) instead of
  /// re-reading the network — one memcpy per array for each maximal run
  /// of clean rows, so the whole arrays when no row is flagged. Callers
  /// flag exactly the nodes whose adjacency changed since `prev` was
  /// built; a clean row's neighbor order must be unchanged in the view
  /// (Network::AddEdge appends, so rows it does not touch keep their
  /// order). Point ranges and the point layer are always rebuilt —
  /// dense point ids shift on every publish. Falls back to a full
  /// Materialize when the node count changed or `dirty` is malformed.
  static FrozenGraph MaterializeIncremental(const InMemoryNetworkView& view,
                                            const FrozenGraph& prev,
                                            const std::vector<char>& dirty);

  /// True when every array (offsets, neighbors, weight bit patterns,
  /// point ranges, the point layer's offsets and group table) matches
  /// exactly — the NETCLUS_VALIDATE oracle that an incremental rebuild
  /// spliced correctly.
  bool BitIdenticalTo(const FrozenGraph& other) const;

  /// Test-only: overwrites half-edge slot `i` so validator-rejection
  /// paths can be exercised. Never call outside tests.
  void CorruptHalfEdgeForTest(size_t i, NodeId neighbor, double weight) {
    neighbors_[i] = neighbor;
    weights_[i] = weight;
  }

  /// Test-only: overwrites point `p`'s offset in the point layer.
  void CorruptPointOffsetForTest(PointId p, double offset) {
    pt_offset_[p] = offset;
  }

 private:
  // Slot index of neighbor `b` in `a`'s CSR row; SIZE_MAX when absent.
  size_t SlotOf(NodeId a, NodeId b) const;

  // Records points [first, first + count) on edge {u, v} in both
  // half-edge slots; returns u's slot (SIZE_MAX when the edge is
  // absent).
  size_t SetEdgePoints(NodeId u, NodeId v, PointId first, uint32_t count);

  // Point ranges for every group of `points`, plus the point layer.
  void AttachPoints(const PointSet& points);

  std::vector<uint32_t> offsets_;   // |V| + 1
  std::vector<NodeId> neighbors_;   // 2|E|
  std::vector<double> weights_;     // 2|E|
  std::vector<PointId> pt_first_;   // 2|E|, kInvalidPointId when no points
  std::vector<uint32_t> pt_count_;  // 2|E|
  std::vector<double> pt_offset_;   // N
  std::vector<PointGroup> groups_;  // point groups
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
