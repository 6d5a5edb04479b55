// In-memory spatial network (Definition 1): an undirected weighted graph
// plus a set of objects (points) lying on its edges.
#ifndef NETCLUS_GRAPH_NETWORK_H_
#define NETCLUS_GRAPH_NETWORK_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/network_view.h"
#include "graph/renumbering.h"
#include "graph/types.h"

namespace netclus {

class FrozenGraph;

/// \brief Undirected weighted graph G = (V, E, W) with adjacency lists.
class Network {
 public:
  /// An empty network (0 nodes).
  Network() = default;
  explicit Network(NodeId num_nodes);

  /// Adds undirected edge {a, b} with weight `w` in the domain (0,
  /// kMaxEdgeWeight) (graph/types.h). Self loops, duplicate edges,
  /// out-of-range endpoints and non-positive, too large, infinite or NaN
  /// weights are rejected.
  Status AddEdge(NodeId a, NodeId b, double w);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  size_t num_edges() const { return num_edges_; }

  /// Weight of edge {a, b}; negative when absent. An O(min(deg a,
  /// deg b)) scan of the adjacency list — for road-like networks the
  /// degree is a small constant.
  double EdgeWeight(NodeId a, NodeId b) const;
  bool HasEdge(NodeId a, NodeId b) const { return EdgeWeight(a, b) >= 0.0; }

  /// Neighbors of `n` as (node, weight) pairs, in insertion order.
  const std::vector<std::pair<NodeId, double>>& neighbors(NodeId n) const {
    return adj_[n];
  }

  /// All edges in canonical orientation (u < v), ordered by (u, v).
  std::vector<Edge> Edges() const;

  /// True when every node is reachable from node 0 (or the graph is empty).
  bool IsConnected() const;

 private:
  std::vector<std::vector<std::pair<NodeId, double>>> adj_;
  size_t num_edges_ = 0;
};

/// \brief Immutable set of points placed on the edges of a Network.
///
/// Point ids are assigned in group order: points on the same edge are
/// consecutive, sorted by ascending offset from the smaller-id endpoint
/// (paper Section 4.1). Groups are ordered by the canonical edge key
/// (u << 32 | v), so the group table is itself §4.1's ordered index on
/// the edge: EdgePointRange is a binary search over it, and there is no
/// side hash map to build or free. An integer label (e.g. the
/// generating cluster, or -1) rides along with each point for
/// evaluation against ground truth.
class PointSet {
 public:
  /// One edge holding points: ids [first, first + count).
  struct Group {
    NodeId u = kInvalidNodeId;
    NodeId v = kInvalidNodeId;
    PointId first = kInvalidPointId;
    uint32_t count = 0;
  };

  PointId size() const { return static_cast<PointId>(offsets_.size()); }
  PointPos position(PointId p) const {
    const Group& g = groups_[group_of_[p]];
    return PointPos{g.u, g.v, offsets_[p]};
  }
  double offset(PointId p) const { return offsets_[p]; }
  /// Every point's offset, indexed by point id: ascending within each
  /// group, so a group's offsets are one contiguous run.
  const std::vector<double>& offsets() const { return offsets_; }
  int label(PointId p) const { return labels_[p]; }

  size_t num_groups() const { return groups_.size(); }
  const Group& group(size_t i) const { return groups_[i]; }

  /// Points on edge {a, b} as [first, first + count); count == 0 if none.
  /// O(log groups): a binary search over the key-ordered group table.
  std::pair<PointId, uint32_t> EdgePointRange(NodeId a, NodeId b) const;

  /// Ground-truth labels for all points (index = point id).
  const std::vector<int>& labels() const { return labels_; }

  /// True when both sets hold the same groups and the same per-point
  /// offsets (compared by bit pattern), labels and group indices — the
  /// oracle that holds a merged set to the from-scratch build.
  bool BitIdenticalTo(const PointSet& other) const;

 private:
  friend class PointSetBuilder;
  std::vector<double> offsets_;       // per point, from canonical u
  std::vector<int> labels_;           // per point
  std::vector<uint32_t> group_of_;    // per point -> group index
  std::vector<Group> groups_;         // ordered by edge key and first id
};

/// \brief How PointSetBuilder::Merge renumbered its base
/// (graph/renumbering.h). The base's points and groups keep their order;
/// the added points, and the groups they opened, land between them.
struct PointSetMerge {
  /// The added points' final ids.
  Renumbering points;
  /// For each added point, in final id order, the Add() call (0-based)
  /// it came from.
  std::vector<uint32_t> added_order;
  /// The final indices of the groups the added points opened: those on
  /// edges that held no base point.
  Renumbering groups;
};

/// \brief Accumulates raw point placements and finalizes them into a
/// PointSet with canonical point-id assignment.
class PointSetBuilder {
 public:
  /// Places a point on edge {a, b} at `offset_from_min` measured from the
  /// smaller-id endpoint, tagged with `label`.
  void Add(NodeId a, NodeId b, double offset_from_min, int label);

  /// The one build routine. Validates the added placements against
  /// `net` (edge exists, offset within the edge weight; the first bad
  /// one in Add() order fails the call), stable-sorts them by (edge
  /// key, offset) and merges them into `base` in one linear pass. On
  /// equal (edge key, offset) the base point goes first, so the result
  /// is exactly what Build() returns for base's points (in id order)
  /// followed by the added ones. `base` is trusted: it came out of an
  /// earlier build over a network that has only gained edges since.
  /// When given, `merge` receives how the base was renumbered.
  Result<PointSet> Merge(const Network& net, const PointSet& base,
                         PointSetMerge* merge) &&;

  /// Merge() onto an empty base. When given, `raw_to_final` receives,
  /// for each Add() call in order, the final id.
  Result<PointSet> Build(const Network& net,
                         std::vector<PointId>* raw_to_final = nullptr) &&;

 private:
  // Merge() with either output: the renumbering, or the final id of
  // each Add() call.
  Result<PointSet> MergeInto(const Network& net, const PointSet& base,
                             PointSetMerge* merge,
                             std::vector<PointId>* raw_to_final) &&;

  struct Raw {
    uint64_t edge_key;
    double offset;
    int label;
    uint32_t raw_index;
  };
  std::vector<Raw> raw_;
};

/// \brief NetworkView over an in-memory Network + PointSet.
class InMemoryNetworkView : public NetworkView {
 public:
  /// Both `net` and `points` must outlive the view.
  InMemoryNetworkView(const Network& net, const PointSet& points)
      : net_(net), points_(points) {}

  NodeId num_nodes() const override { return net_.num_nodes(); }
  PointId num_points() const override { return points_.size(); }
  void ForEachNeighbor(
      NodeId n,
      const std::function<void(NodeId, double)>& fn) const override;
  double EdgeWeight(NodeId a, NodeId b) const override {
    return net_.EdgeWeight(a, b);
  }
  PointPos PointPosition(PointId p) const override {
    return points_.position(p);
  }
  void GetEdgePoints(NodeId a, NodeId b,
                     std::vector<EdgePoint>* out) const override;
  void ForEachPointGroup(
      const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn)
      const override;
  const InMemoryNetworkView* AsInMemory() const override { return this; }

  /// Materializes an immutable CSR snapshot of the network's adjacency
  /// over a copy of the view's PointSet, so the snapshot outlives the
  /// view (see graph/frozen_graph.h). Neighbor order matches this view's
  /// iteration order, so traversals over the snapshot are bit-identical
  /// to traversals over the view. Defined in frozen_graph.cc; callers
  /// include graph/frozen_graph.h.
  Result<FrozenGraph> Freeze() const;

  const Network& network() const { return net_; }
  const PointSet& points() const { return points_; }

 private:
  const Network& net_;
  const PointSet& points_;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_H_
