// Brute-force reference implementations (paper Section 3.2).
//
// The "straightforward" methods the paper argues against: precompute the
// full node/point distance matrices and run textbook clustering on them.
// Quadratic or cubic, hence only usable on small inputs — which is exactly
// their role here: correctness oracles for the network-traversal
// algorithms.
#ifndef NETCLUS_SUPPORT_BRUTE_FORCE_H_
#define NETCLUS_SUPPORT_BRUTE_FORCE_H_

#include <vector>

#include "core/clustering.h"
#include "core/dendrogram.h"
#include "graph/network.h"

namespace netclus {

/// All-pairs node distances by Floyd–Warshall. O(|V|^3): tests only.
std::vector<std::vector<double>> BruteNodeDistances(const Network& net);

/// Definition 4 applied literally on a precomputed node matrix.
double BrutePointDistance(const Network& net, const PointSet& points,
                          const std::vector<std::vector<double>>& node_dist,
                          PointId p, PointId q);

/// Full N x N point distance matrix (via BruteNodeDistances).
std::vector<std::vector<double>> BrutePointDistanceMatrix(
    const Network& net, const PointSet& points);

/// Connected components of the graph "d(p, q) <= eps"; components smaller
/// than min_sup become noise. The ε-Link semantics, by definition.
Clustering BruteEpsComponents(const std::vector<std::vector<double>>& pd,
                              double eps, uint32_t min_sup);

/// Exact single-link dendrogram: Kruskal over all point pairs.
Dendrogram BruteSingleLink(const std::vector<std::vector<double>>& pd);

/// Evaluation function R and nearest-medoid assignment straight off the
/// distance matrix (the oracle for Equation (1) / Fig. 4).
double BruteMedoidAssign(const std::vector<std::vector<double>>& pd,
                         const std::vector<PointId>& medoids,
                         std::vector<int>* assignment);

/// Core flags per DBSCAN semantics: |{q : d(p,q) <= eps}| >= min_pts
/// (the point itself counts).
std::vector<bool> BruteCoreFlags(const std::vector<std::vector<double>>& pd,
                                 double eps, uint32_t min_pts);

}  // namespace netclus

#endif  // NETCLUS_SUPPORT_BRUTE_FORCE_H_
