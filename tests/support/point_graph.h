// The Section 3.2 transformation: network-with-objects -> conventional
// weighted graph over the objects.
//
// G' has one node per object, and an edge (p, q) whenever some path from
// p to q passes through no other object; its weight is the length of the
// shortest such path. Shortest paths in G' between objects equal the
// network distances in G — which makes G' both a correctness oracle and
// the baseline the paper argues against: the transformation is expensive
//, and G' can be far denser than G (the paper's example: a ring with
// n objects becomes a clique of n(n-1)/2 edges).
#ifndef NETCLUS_SUPPORT_POINT_GRAPH_H_
#define NETCLUS_SUPPORT_POINT_GRAPH_H_

#include "common/status.h"
#include "graph/network.h"
#include "graph/network_view.h"

namespace netclus {

/// \brief The transformed graph plus construction statistics.
struct PointGraph {
  /// One node per object (node id == point id); edge weights are
  /// object-to-object path lengths avoiding intermediate objects.
  Network graph;
  /// Candidate object pairs examined (>= graph.num_edges(): parallel
  /// routes between the same pair collapse to the minimum).
  size_t candidate_edges = 0;
};

/// Builds G' by expanding the network around every object until blocked
/// by other objects. O(N * local expansion); exact.
Result<PointGraph> BuildPointGraph(const NetworkView& view);

}  // namespace netclus

#endif  // NETCLUS_SUPPORT_POINT_GRAPH_H_
