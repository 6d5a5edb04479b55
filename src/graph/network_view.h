// NetworkView: the access interface the clustering algorithms run against.
//
// Two implementations exist: InMemoryNetworkView (adjacency lists in RAM)
// and DiskNetworkView (the paper's Section 4.1 storage architecture: flat
// files + sparse B+-trees behind an LRU buffer). Algorithms are written
// once, generic over the traversal graph: an in-memory view is frozen
// into a FrozenGraph snapshot (InMemoryNetworkView::Freeze()) and
// traversed over that, a disk-backed view is traversed directly, so every
// page it reads is one the algorithm itself asked for. Both runs execute
// identical logic and must produce identical clusterings.
#ifndef NETCLUS_GRAPH_NETWORK_VIEW_H_
#define NETCLUS_GRAPH_NETWORK_VIEW_H_

#include <functional>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace netclus {

class FrozenGraph;
class InMemoryNetworkView;

/// \brief Read-only access to a network and the points lying on it.
class NetworkView {
 public:
  virtual ~NetworkView() = default;

  /// Number of network nodes |V|.
  virtual NodeId num_nodes() const = 0;

  /// Number of objects N lying on edges.
  virtual PointId num_points() const = 0;

  /// Invokes `fn(neighbor, weight)` for every edge incident to `n`.
  virtual void ForEachNeighbor(
      NodeId n, const std::function<void(NodeId, double)>& fn) const = 0;

  /// Weight of edge {a, b}; negative when the edge does not exist.
  virtual double EdgeWeight(NodeId a, NodeId b) const = 0;

  /// Position (Definition 1 triplet) of point `p`.
  virtual PointPos PointPosition(PointId p) const = 0;

  /// Fills `out` with the points on edge {a, b}, ordered by ascending
  /// offset from the smaller-id endpoint. `out` is cleared first.
  virtual void GetEdgePoints(NodeId a, NodeId b,
                             std::vector<EdgePoint>* out) const = 0;

  /// Sequentially scans all point groups (edges holding at least one
  /// point) in point-id order: `fn(u, v, first_point, count)` with u < v.
  /// This is the "single scan on the points file" used by the Single-Link
  /// initialization and the k-medoids assignment phase.
  virtual void ForEachPointGroup(
      const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn)
      const = 0;

  /// This view as an InMemoryNetworkView, or null (the default) when its
  /// data is not resident in memory. Only an in-memory view is frozen
  /// into a snapshot; a view returning null is traversed directly, every
  /// read going through the accessors above.
  virtual const InMemoryNetworkView* AsInMemory() const { return nullptr; }

  /// First I/O error the view has swallowed, or OK. The accessor methods
  /// above cannot report failures inline (algorithms consume them as pure
  /// data); fallible backends (DiskNetworkView) record the first error
  /// here instead and return neutral values. RunClustering checks this
  /// before and after every run, so storage failures surface as a non-OK
  /// Status at the API boundary rather than as silently wrong clusters.
  virtual Status status() const { return Status::OK(); }
};

/// The two traversal graphs every algorithm entry is instantiated for: a
/// FrozenGraph snapshot of an in-memory view, or the view itself.
template <typename Graph>
concept TraversalGraph =
    std::is_same_v<Graph, FrozenGraph> || std::is_same_v<Graph, NetworkView>;

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_VIEW_H_
