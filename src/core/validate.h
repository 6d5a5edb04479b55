// Per-algorithm invariant validators: independent re-verification of the
// delicate traversal invariants each clustering algorithm rests on.
//
// Every validator re-derives the invariant from primitives the algorithm
// under test does NOT use (point-to-point Dijkstra, ε-range queries,
// union-find replay), in the spirit of validating optimized k-medoids
// variants against the naive formulation. On small inputs the checks are
// exact oracles; at scale they fall back to structural checks plus a
// deterministic sample of points, bounded by ValidateLimits.
//
// Validators return OK or a Status::Internal naming the violated
// invariant and the offending point/merge. They are wired into
// RunClustering behind ClusterSpec::validate and forced on for every run
// in builds configured with -DNETCLUS_VALIDATE=ON, so perf PRs can
// refactor the hot traversals and let the full test suite re-prove the
// clustering semantics.
#ifndef NETCLUS_CORE_VALIDATE_H_
#define NETCLUS_CORE_VALIDATE_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"
#include "core/dbscan.h"
#include "core/dendrogram.h"
#include "core/eps_link.h"
#include "core/single_link.h"
#include "graph/dijkstra.h"
#include "graph/network_view.h"

namespace netclus {

/// Cost bounds for the exact-oracle parts of validation.
struct ValidateLimits {
  /// Up to this many points the validators run their full independent
  /// oracle (O(N·k) Dijkstra for k-medoids, one ε-range query per point
  /// for the density validators).
  PointId exact_max_points = 512;
  /// Above that, this many points are spot-checked instead, taken at a
  /// fixed stride so the sample is deterministic.
  PointId sample_points = 256;
};

/// Structural sanity of any flat clustering against its view: assignment
/// has one entry per point, ids are kNoise or in [0, num_clusters).
Status ValidateClusteringShape(const NetworkView& view, const Clustering& c);

/// k-medoids (paper Fig. 4/5 + Eq. 1): medoid ids valid and distinct,
/// and every point is tagged with its true nearest medoid — re-verified
/// against an independent point-to-point Dijkstra per (point, medoid)
/// pair in exact mode (which also re-derives the evaluation function R
/// and compares it to `cost`), on a sample of points at scale.
Status ValidateKMedoids(const NetworkView& view, const Clustering& c,
                        const std::vector<PointId>& medoids, double cost,
                        const ValidateLimits& limits = {});

/// ε-Link: clusters are exactly the connected components of the "pairs
/// within ε" graph with components smaller than min_sup demoted to
/// noise. Exact mode rebuilds the components with one independent
/// ε-range query per point and demands a bijection between components
/// and cluster ids — which is simultaneously ε-connectivity (no cluster
/// spans an ε-gap) and ε-separation (no two clusters are ε-linked).
Status ValidateEpsLink(const NetworkView& view, const Clustering& c,
                       const EpsLinkOptions& options,
                       const ValidateLimits& limits = {});

/// Network DBSCAN: core flags match neighborhood sizes, core points are
/// never noise, ε-close core points share a cluster, border points join
/// a core neighbor's cluster, and noise points have no core neighbor.
Status ValidateDbscan(const NetworkView& view, const Clustering& c,
                      const DbscanOptions& options,
                      const ValidateLimits& limits = {});

/// Single-Link dendrogram: merge endpoints valid, every merge joins two
/// previously distinct clusters (union-find replay), and the merge
/// distance sequence is non-decreasing above the δ pre-merge threshold
/// and bounded by stop_distance.
Status ValidateDendrogram(const Dendrogram& dendrogram,
                          const SingleLinkOptions& options);

/// Heap-property audit of reusable Dijkstra heap storage (the min-heap
/// layout push_heap/pop_heap maintain), plus NaN screening.
Status ValidateHeap(const std::vector<DijkstraHeapEntry>& heap);

/// Settle-order audit: node ids in range, each settled at most once,
/// distances finite, non-negative and non-decreasing (the Dijkstra
/// settle-order invariant).
Status ValidateSettleLog(
    const std::vector<std::pair<NodeId, double>>& settled, NodeId num_nodes);

/// Full TraversalWorkspace audit: scratch sized for the network, heap
/// and settle log pass the audits above.
Status ValidateWorkspace(const TraversalWorkspace& ws, NodeId num_nodes);

/// FrozenGraph snapshot audit against its source view: node count, every
/// node's neighbor sequence (ids AND weights, in the view's iteration
/// order — the order bit-identical trajectories rest on), and every
/// point-bearing edge's point-range handles must match the live view
/// exactly; so must the point layer (group table in ForEachPointGroup
/// order with the view's edge weights, and every point's offset).
/// O(V + E + N). Wired into RunClustering's validate block so
/// -DNETCLUS_VALIDATE=ON builds re-prove the snapshot on every run that
/// takes one.
Status ValidateFrozenGraph(const NetworkView& view, const FrozenGraph& frozen);

}  // namespace netclus

#endif  // NETCLUS_CORE_VALIDATE_H_
