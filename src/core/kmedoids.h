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
#include "index/landmark_oracle.h"

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
  /// Attempted swaps rejected by the landmark cost lower bound before
  /// any traversal ran (always 0 without landmarks). A pruned swap is
  /// provably non-improving, so the search trajectory is identical to
  /// the unpruned run.
  uint32_t pruned_swaps = 0;
  /// Wall time of the initial full assignment ("first iteration").
  double first_iteration_seconds = 0.0;
  /// Mean wall time of one subsequent swap evaluation ("next ones").
  double avg_swap_seconds = 0.0;
  /// Wall time spent assembling swap lower bounds (always 0 without
  /// landmarks); included in avg_swap_seconds. Like total_seconds it
  /// sums over every restart.
  double bound_seconds = 0.0;
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
/// run serially.
///
/// `landmarks` is an optional landmark oracle (null = none). Before a
/// tentative swap of medoid slot i for candidate c is evaluated, a sound
/// lower bound on the post-swap cost is assembled against the exact
/// current assignment: a point of another slot keeps its medoid, so it
/// is charged min(its current cost, LB(p, c)); only slot i's points are
/// bounded against all k new medoids; noise points are charged 0. Swaps
/// whose bound already exceeds the current cost are rejected without
/// running Inc_Medoid_Update or the assignment scan. Pruning never
/// changes the result: the rng draws and the accept/reject sequence are
/// identical with the landmarks on or off.
///
/// Callers normally go through RunClustering(view, MakeSpec(options))
/// (netclus.h), which picks the graph and builds the landmark index.
template <TraversalGraph Graph>
Result<KMedoidsResult> KMedoidsCluster(const NetworkView& view,
                                       const Graph& graph,
                                       const KMedoidsOptions& options,
                                       const LandmarkOracle* landmarks);

/// Evaluates R for an arbitrary medoid set (no search), assigning every
/// point to its nearest medoid over `graph` (as above). Exposed for tests
/// and for the evaluation module.
template <TraversalGraph Graph>
Result<KMedoidsResult> AssignToMedoids(const NetworkView& view,
                                       const Graph& graph,
                                       const std::vector<PointId>& medoids);

}  // namespace netclus

#endif  // NETCLUS_CORE_KMEDOIDS_H_
