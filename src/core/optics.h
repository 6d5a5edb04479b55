// Network OPTICS: density-based cluster ordering over the network
// distance.
//
// The paper notes (Section 2) that choosing ε and MinPts for DBSCAN is
// hard, and that OPTICS [Ankerst et al. 1999] alleviates this. This
// module adapts OPTICS to spatial networks using the same ε-range
// machinery as the DBSCAN adaptation: one run produces a reachability
// ordering from which the DBSCAN clustering for ANY eps' <= eps can be
// extracted without re-touching the network.
#ifndef NETCLUS_CORE_OPTICS_H_
#define NETCLUS_CORE_OPTICS_H_

#include <vector>

#include "common/status.h"
#include "core/clustering.h"
#include "graph/network_view.h"

namespace netclus {

/// Options for OpticsOrder.
struct OpticsOptions {
  /// Generating radius: the ordering answers every eps' <= eps.
  double eps = 1.0;
  /// Core threshold (the point itself counts, as in our DBSCAN).
  uint32_t min_pts = 2;
};

/// The cluster ordering: points in visit order with their reachability
/// and core distances (kInfDist = undefined).
struct OpticsResult {
  std::vector<PointId> order;
  std::vector<double> reachability;   ///< per order position
  std::vector<double> core_distance;  ///< per point id
};

/// Computes the OPTICS ordering of all points. Every range expansion
/// runs over `graph`: a FrozenGraph snapshot of `view` or the view
/// itself. Bit-identical ordering either way.
template <TraversalGraph Graph>
Result<OpticsResult> OpticsOrder(const NetworkView& view, const Graph& graph,
                                 const OpticsOptions& options);

/// Extracts the DBSCAN-equivalent clustering at `eps_prime` (must be <=
/// the generating eps) from an ordering computed with `min_pts`.
Clustering ExtractDbscanClustering(const OpticsResult& optics,
                                   double eps_prime, uint32_t min_pts);

}  // namespace netclus

#endif  // NETCLUS_CORE_OPTICS_H_
