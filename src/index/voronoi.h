// Network-Voronoi nearest-object precompute: for every network node,
// the nearest point (object) and its distance, plus the second-nearest
// point with a *distinct* id.
//
// Built with one multi-source Dijkstra carrying up to two labels with
// distinct sources per node (the standard k-best-distinct labeling, k =
// 2). Seeding exploits the edge-group point order: from an endpoint,
// the best and second-best points reachable via a given edge are the
// two with the smallest offsets from that endpoint, so each edge
// contributes at most four seeds (two per side) regardless of how many
// points it holds — every other point on the edge is dominated via both
// routes.
//
// The second-best label is what makes exclusion sound: range-query
// pruning must lower-bound "distance from node n to the nearest object
// that is not the query center". With the two nearest distinct objects
// per node, FloorExcluding answers that exactly (see the proof sketch
// in DESIGN.md section 10).
#ifndef NETCLUS_INDEX_VORONOI_H_
#define NETCLUS_INDEX_VORONOI_H_

#include <vector>

#include "common/status.h"
#include "graph/dijkstra.h"
#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

/// \brief Per-node nearest / second-nearest object tags, O(1) lookup.
///
/// Immutable after Build; all const methods are concurrency-safe.
class VoronoiPrecompute {
 public:
  /// Builds the tables; the multi-source expansion runs over `graph`: a
  /// FrozenGraph snapshot of `view` or the view itself (bit-identical
  /// tables either way).
  template <TraversalGraph Graph>
  static Result<VoronoiPrecompute> Build(const NetworkView& view,
                                         const Graph& graph);

  /// Nearest object to node n (kInvalidPointId if no object reaches n).
  PointId NearestObject(NodeId n) const { return first_id_[n]; }

  /// Distance to the nearest object (kInfDist if none reaches n).
  double NearestDistance(NodeId n) const { return first_d_[n]; }

  /// Exact distance from n to the nearest object whose id differs from
  /// `exclude` (pass kInvalidPointId to exclude nothing); kInfDist when
  /// no such object reaches n.
  double FloorExcluding(NodeId n, PointId exclude) const {
    if (first_id_[n] == kInvalidPointId) return kInfDist;
    if (first_id_[n] != exclude) return first_d_[n];
    return second_id_[n] == kInvalidPointId ? kInfDist : second_d_[n];
  }

  NodeId num_nodes() const { return static_cast<NodeId>(first_id_.size()); }

 private:
  VoronoiPrecompute() = default;

  std::vector<PointId> first_id_;
  std::vector<double> first_d_;
  std::vector<PointId> second_id_;
  std::vector<double> second_d_;
};

}  // namespace netclus

#endif  // NETCLUS_INDEX_VORONOI_H_
