// Density-based clustering: the ε-Link algorithm (paper Section 4.3.1).
//
// ε-Link is the MinPts = 2 specialization of density-based clustering:
// two points belong to the same cluster whenever their network distance is
// at most ε. Each cluster is discovered with a single Dijkstra-like
// expansion whose node distances shrink dynamically as new points join
// the cluster, so only the part of the network within ε of some cluster
// point is ever traversed.
#ifndef NETCLUS_CORE_EPS_LINK_H_
#define NETCLUS_CORE_EPS_LINK_H_

#include "common/status.h"
#include "core/clustering.h"
#include "graph/network_view.h"

namespace netclus {

/// Options for EpsLinkCluster.
struct EpsLinkOptions {
  /// Two points within network distance eps are linked into one cluster.
  double eps = 1.0;
  /// Clusters with fewer than `min_sup` points are declared outliers
  /// (the paper's optional min_sup parameter).
  uint32_t min_sup = 1;
};

/// Clusters all points; the result's clusters are exactly the connected
/// components of the "pairs within eps" graph, with components smaller
/// than min_sup downgraded to noise. Deterministic for fixed input. The
/// expansion traverses `graph`: a FrozenGraph snapshot of `view` (CSR
/// arrays, no virtual dispatch) or the view itself. Bit-identical result
/// either way.
///
/// Callers normally go through RunClustering(view, MakeSpec(options))
/// (netclus.h), which picks the graph.
template <TraversalGraph Graph>
Result<Clustering> EpsLinkCluster(const NetworkView& view, const Graph& graph,
                                  const EpsLinkOptions& options);

}  // namespace netclus

#endif  // NETCLUS_CORE_EPS_LINK_H_
