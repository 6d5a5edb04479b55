// Hierarchical clustering: the Single-Link algorithm (paper Section 4.4).
//
// Computes the exact single-link dendrogram over the network distance with
// one traversal of the graph. Two priority queues drive the run: P holds
// candidate cluster pairs with path-length upper bounds, Q holds network
// nodes keyed by their distance to the nearest cluster (a multi-source
// Dijkstra / network Voronoi expansion). A pair is merged only once the
// doubled distance of the current Q node reaches it — at that moment no
// shorter undiscovered connection can exist, because the two settled
// endpoints of a minimal inter-cluster path each lie within half its
// length (the Voronoi-boundary property).
//
// The δ heuristic (Section 4.4.2) immediately merges initial clusters
// closer than δ, shrinking the starting cluster count and both heaps; the
// dendrogram is then exact above δ.
#ifndef NETCLUS_CORE_SINGLE_LINK_H_
#define NETCLUS_CORE_SINGLE_LINK_H_

#include <limits>

#include "common/status.h"
#include "core/dendrogram.h"
#include "graph/network_view.h"

namespace netclus {

/// Options for SingleLinkCluster.
struct SingleLinkOptions {
  /// Pre-merge threshold of the scalability heuristic; 0 disables it.
  /// With delta > 0 the dendrogram is exact only above delta.
  double delta = 0.0;
  /// Stop once this many clusters remain (1 = full dendrogram).
  uint32_t stop_cluster_count = 1;
  /// Stop before any merge whose distance exceeds this (e.g. eps, to
  /// reproduce ε-Link per the paper's Section 5.1 remark).
  double stop_distance = std::numeric_limits<double>::infinity();
};

/// Size/cost counters (the δ-heuristic ablation reads these).
struct SingleLinkStats {
  size_t initial_clusters = 0;  ///< clusters after the δ pre-merge phase
  size_t max_pair_heap = 0;     ///< peak size of P
  size_t max_node_heap = 0;     ///< peak size of Q
  size_t nodes_expanded = 0;
};

/// Result: the dendrogram (including δ pre-merges, which carry their true
/// sub-δ distances) plus run statistics.
struct SingleLinkResult {
  Dendrogram dendrogram;
  SingleLinkStats stats;

  explicit SingleLinkResult(PointId n) : dendrogram(n) {}
};

/// Runs Single-Link over all points of `view`. The Voronoi expansion
/// runs over `graph`: a FrozenGraph snapshot of `view` (CSR arrays, no
/// virtual dispatch) or the view itself. The dendrogram and stats are
/// bit-identical either way.
///
/// Callers normally go through RunClustering(view, MakeSpec(options))
/// (netclus.h), which picks the graph.
template <TraversalGraph Graph>
Result<SingleLinkResult> SingleLinkCluster(const NetworkView& view,
                                           const Graph& graph,
                                           const SingleLinkOptions& options);

}  // namespace netclus

#endif  // NETCLUS_CORE_SINGLE_LINK_H_
