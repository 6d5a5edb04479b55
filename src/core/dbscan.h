// Network adaptation of DBSCAN (paper Section 4.3).
//
// The straightforward density-based baseline: an eps-range query (network
// expansion) is issued for every point, and clusters are grown from core
// points exactly as in the original DBSCAN. With MinPts = 2 it discovers
// the same clusters as ε-Link, at a higher cost — the comparison the
// paper's Table 2 reports.
#ifndef NETCLUS_CORE_DBSCAN_H_
#define NETCLUS_CORE_DBSCAN_H_

#include "common/status.h"
#include "core/clustering.h"
#include "graph/network_view.h"

namespace netclus {

/// Options for DbscanCluster.
struct DbscanOptions {
  double eps = 1.0;
  /// Minimum neighborhood size (the point itself counts, as in the
  /// original DBSCAN) for a point to be a core point.
  uint32_t min_pts = 2;
  /// Worker threads for the eps-range queries (one query per point, each
  /// an independent bounded network expansion). 0 = one per hardware
  /// core, 1 = the serial on-the-fly path. The clustering is identical
  /// at any thread count: with > 1 thread all N neighborhoods are
  /// precomputed in parallel (per-worker TraversalWorkspace leases, no
  /// shared mutable state), then the cluster-growth phase replays the
  /// exact serial scan order over the cached neighborhoods. A run over a
  /// NetworkView graph (possibly disk-backed, whose buffer is not
  /// thread-safe) is serial whatever this says.
  uint32_t num_threads = 1;
};

/// Runs network DBSCAN over all points. Border points join the first core
/// point that reaches them (scan order: ascending point id); unreached
/// points are noise. Every eps-range query expands over `graph`: a
/// FrozenGraph snapshot of `view` (shared read-only across the query
/// workers) or the view itself. The choice does not change the
/// clustering (audited under validate mode).
///
/// Callers normally go through RunClustering(view, MakeSpec(options))
/// (netclus.h), which picks the graph.
template <TraversalGraph Graph>
Result<Clustering> DbscanCluster(const NetworkView& view, const Graph& graph,
                                 const DbscanOptions& options);

}  // namespace netclus

#endif  // NETCLUS_CORE_DBSCAN_H_
