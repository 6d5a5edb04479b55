// NetworkView: the access interface the clustering algorithms run against.
//
// Two implementations exist: InMemoryNetworkView (adjacency lists in RAM)
// and DiskNetworkView (the paper's Section 4.1 storage architecture: flat
// files + sparse B+-trees behind an LRU buffer). Algorithms are written
// once against this interface, so disk-backed and in-memory runs execute
// identical logic and must produce identical clusterings.
#ifndef NETCLUS_GRAPH_NETWORK_VIEW_H_
#define NETCLUS_GRAPH_NETWORK_VIEW_H_

#include <functional>
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

  /// Materializes an immutable CSR snapshot of this view's adjacency
  /// structure (see graph/frozen_graph.h). Neighbor order matches this
  /// view's iteration order, so traversals over the snapshot are
  /// bit-identical to traversals over the view. Works for any backend;
  /// a disk-backed view pages its whole adjacency file once, an
  /// in-memory view is copied directly and also gets the snapshot's
  /// point layer. Fails if the view has recorded (or records during the
  /// scan) an I/O error. Defined in frozen_graph.cc; callers include
  /// graph/frozen_graph.h.
  Result<FrozenGraph> Freeze() const;

  /// This view as an InMemoryNetworkView, or null (the default) when its
  /// data is not resident in memory. FrozenGraph reads the Network rows
  /// and the PointSet straight through it; a view returning null keeps
  /// every point read going through the accessors above.
  virtual const InMemoryNetworkView* AsInMemory() const { return nullptr; }

  /// First I/O error the view has swallowed, or OK. The accessor methods
  /// above cannot report failures inline (algorithms consume them as pure
  /// data); fallible backends (DiskNetworkView) record the first error
  /// here instead and return neutral values. RunClustering checks this
  /// before and after every run, so storage failures surface as a non-OK
  /// Status at the API boundary rather than as silently wrong clusters.
  virtual Status status() const { return Status::OK(); }
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_VIEW_H_
