// Partitioning-based clustering on a spatial network (paper Section 4.2).
//
// A k-medoids search: k random points serve as medoids, every point is
// assigned to its nearest medoid by network distance, and random
// medoid/point swaps are committed whenever they reduce the evaluation
// function R = sum over points of d(p, medoid(p)).
//
// The two traversal routines of the paper are both implemented:
//  * Medoid_Dist_Find (Fig. 4): one concurrent multi-source Dijkstra tags
//    every network node with its nearest medoid and distance.
//  * Inc_Medoid_Update (Fig. 5): after one medoid is swapped, only the
//    affected region is repaired (the replaced medoid's nodes are
//    unassigned and re-conquered from the boundary and the new medoid).
// Point assignment then follows Equation (1): a point's nearest medoid is
// reachable via either endpoint of its edge, or lies on the same edge.
#ifndef NETCLUS_CORE_KMEDOIDS_H_
#define NETCLUS_CORE_KMEDOIDS_H_

#include <vector>

#include "common/status.h"
#include "core/clustering.h"
#include "graph/network_view.h"

namespace netclus {

/// Options for KMedoidsCluster.
struct KMedoidsOptions {
  uint32_t k = 10;
  /// Consecutive rejected swaps before declaring a local optimum (the
  /// paper allows 15).
  uint32_t max_unsuccessful_swaps = 15;
  /// Safety cap on total attempted swaps.
  uint32_t max_swaps = 10000;
  /// Use Inc_Medoid_Update (true) or rerun Medoid_Dist_Find from scratch
  /// after every swap (false) — the ablation of Fig. 12 / Table 1.
  bool incremental_updates = true;
  /// Random restarts; the best local optimum wins. Restart r draws its
  /// randomness from Rng(Rng::DeriveSeed(seed, r)), so the set of
  /// restarts — and therefore the result — is identical at any
  /// `num_threads`.
  uint32_t num_restarts = 1;
  uint64_t seed = 1;
  /// Fixed initial medoids (e.g. the generated cluster seeds — the
  /// "ideal" seeding of Fig. 11b). Empty = random initialization. When
  /// non-empty, `k` is ignored and `num_restarts` is treated as 1.
  std::vector<PointId> initial_medoids;
  /// Worker threads for the restart loop: restarts run one per task.
  /// 0 = one per hardware core, 1 = serial. Results are bit-identical
  /// across thread counts for a fixed seed.
  uint32_t num_threads = 1;
};

/// Timing/convergence statistics of one run (Table 1's columns).
struct KMedoidsStats {
  /// Committed improving swaps (excluding the initial assignment).
  uint32_t committed_swaps = 0;
  uint32_t attempted_swaps = 0;
  /// Always 0: every attempted swap is evaluated. Inert, kept only
  /// because perfbench reads it.
  uint32_t pruned_swaps = 0;
  /// Wall time of the initial full assignment ("first iteration").
  double first_iteration_seconds = 0.0;
  /// Mean wall time of one subsequent swap evaluation ("next ones").
  double avg_swap_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Result of KMedoidsCluster.
struct KMedoidsResult {
  Clustering clustering;            ///< assignment[p] = medoid index
  std::vector<PointId> medoids;     ///< point id of each medoid
  double cost = 0.0;                ///< final evaluation function R
  KMedoidsStats stats;
};

/// Runs k-medoids: random initial medoids unless
/// `options.initial_medoids` is set. Every traversal (Medoid_Dist_Find,
/// Inc_Medoid_Update, the assignment scan) runs over `graph`: a
/// FrozenGraph snapshot of `view` (CSR arrays, no virtual dispatch,
/// shared read-only across the restart workers) or the view itself.
/// Results are bit-identical either way. Over a snapshot, restarts
/// execute in parallel on `options.num_threads` workers with per-restart
/// derived seeds; the winning run (lowest cost, ties broken by lowest
/// restart index) is bit-identical to a serial execution. Over the view
/// itself (possibly disk-backed, whose buffer is not thread-safe) they
/// run serially. Every attempted swap is evaluated: Inc_Medoid_Update
/// (or Medoid_Dist_Find) plus the Equation (1) assignment scan.
///
/// Callers normally go through RunClustering(view, MakeSpec(options))
/// (netclus.h), which picks the graph.
template <TraversalGraph Graph>
Result<KMedoidsResult> KMedoidsCluster(const NetworkView& view,
                                       const Graph& graph,
                                       const KMedoidsOptions& options);

/// Evaluates R for an arbitrary medoid set (no search), assigning every
/// point to its nearest medoid over `graph` (as above). Exposed for tests
/// and for the evaluation module.
template <TraversalGraph Graph>
Result<KMedoidsResult> AssignToMedoids(const NetworkView& view,
                                       const Graph& graph,
                                       const std::vector<PointId>& medoids);

}  // namespace netclus

#endif  // NETCLUS_CORE_KMEDOIDS_H_
