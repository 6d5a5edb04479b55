// Point-level distance functions of the paper's Section 3.1 and the
// ε-range query over the network ([16]-style expansion) used by DBSCAN.
//
// These free functions are the synchronous compatibility surface of the
// unified query API in server/query.h: a QueryRequest of each kind
// (kPointDistance, kRange, kNearestObject) executes by dispatching onto
// the function below matching the execution context — live view or
// FrozenGraph snapshot, and for point distances accelerated or exact.
// Every frozen/view overload pair, and every accel/plain
// PointNetworkDistance pair at the default threshold, is bit-identical
// in its results, which is what lets ValidateServedBatch replay a served
// batch through any of them and demand exact payload equality. Existing
// callers keep using these functions directly; new query-shaped code
// should prefer the QueryRequest vocabulary.
#ifndef NETCLUS_GRAPH_NETWORK_DISTANCE_H_
#define NETCLUS_GRAPH_NETWORK_DISTANCE_H_

#include <type_traits>
#include <vector>

#include "graph/accelerator.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

/// Direct distance d_L(p, q) (Definition 2): |offset difference| when the
/// points share an edge, +infinity otherwise. Not necessarily the shortest
/// distance even on a shared edge.
double DirectDistance(const PointPos& p, const PointPos& q);

/// Direct distance d_L(p, n) from a point to an endpoint of its edge
/// (`edge_weight` = W(p.u, p.v)); +infinity when `n` is neither endpoint.
double DirectDistanceToNode(const PointPos& p, double edge_weight, NodeId n);

/// Network distance d(p, q) (Definition 4): length of the shortest path
/// between the two points. Exact; early-terminating bidirectionally
/// bounded single-source Dijkstra seeded at p's edge endpoints.
/// `scratch` may be shared across calls (a fresh epoch is started).
double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            NodeScratch* scratch);

/// Frozen-path variant: the traversal runs over `frozen` (a snapshot of
/// `view`, see InMemoryNetworkView::Freeze()) with no virtual dispatch
/// in the inner loop; point positions come from `view`. Bit-identical to
/// the overload above.
double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, NodeScratch* scratch);

/// Accelerated variant (`accel` may be null = exact path above). Early
/// exits on a cache hit and on a kInfDist lower bound (proven
/// disconnection); exact results are offered back to the cache.
/// Callers that only branch on "d(p, q) <= threshold" may pass
/// `threshold`: when the accelerator's lower bound already exceeds it,
/// the expansion is skipped and that lower bound — some value >
/// threshold, not the exact distance — is returned.
double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            NodeScratch* scratch,
                            const DistanceAccelerator* accel,
                            double threshold = kInfDist);

/// Frozen-path accelerated variant; same contract, exact expansions run
/// over the snapshot.
double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, NodeScratch* scratch,
                            const DistanceAccelerator* accel,
                            double threshold = kInfDist);

/// Workspace-based variants: the expansion reuses `ws`'s heap storage
/// and honors its cancellation token (`ws->cancel`, inert by default —
/// results are bit-identical to the NodeScratch overloads above). When
/// the token fires mid-expansion the returned value is garbage: callers
/// must check `ws->cancel.triggered`, and a cancelled expansion is
/// never offered back to the accelerator's cache.
double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            TraversalWorkspace* ws,
                            const DistanceAccelerator* accel = nullptr,
                            double threshold = kInfDist);
double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, TraversalWorkspace* ws,
                            const DistanceAccelerator* accel = nullptr,
                            double threshold = kInfDist);

/// A point found by RangeQuery, with its exact network distance from the
/// query point.
struct RangeResult {
  PointId id = kInvalidPointId;
  double dist = 0.0;
};

/// Exact equality, distance compared bitwise — the comparison the served
/// batch replay validator (server/query.h) relies on.
inline bool operator==(const RangeResult& a, const RangeResult& b) {
  return a.id == b.id && a.dist == b.dist;
}
inline bool operator!=(const RangeResult& a, const RangeResult& b) {
  return !(a == b);
}

/// Finds every point q with d(center, q) <= eps (including `center`
/// itself). Expands the network around `center` up to distance eps, then
/// inspects each edge incident to a reached node once. Within an edge
/// the points are sorted by offset, so the in-range ones form at most
/// three runs (reached from the smaller endpoint, from the larger one,
/// and — on the center's own edge — directly), found by binary search.
/// The cost is the expansion plus O(log c) per inspected edge holding c
/// points plus one step per emitted point — the edges and points inside
/// the eps region, never |V| or N. Results come in the order edges are
/// inspected (the center edge, then settle order), ascending id within
/// an edge.
///
/// The workspace's heap, settle log, seed list and stamps are reused, so
/// once they and `out` have grown to the largest region seen, a query
/// over a snapshot with a point layer allocates nothing — the steady
/// state for algorithms that issue one range query per point (DBSCAN).
/// One workspace per concurrent caller; lease them from a WorkspacePool
/// under parallelism.
void RangeQuery(const NetworkView& view, PointId center, double eps,
                TraversalWorkspace* ws, std::vector<RangeResult>* out);

/// Frozen-path variant: expansion and edge inspection run over the
/// snapshot, edge points come from its point layer. Bit-identical
/// results.
void RangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                PointId center, double eps, TraversalWorkspace* ws,
                std::vector<RangeResult>* out);

/// Node-sourced variant over a snapshot: every point q whose network
/// distance from node `source` is <= `radius`, with that distance, in
/// settle order. Same cost and allocation behavior as RangeQuery.
void NodeRangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                    NodeId source, double radius, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out);

/// The RangeQuery over a traversal graph (see TraversalGraph): the
/// snapshot overload for a FrozenGraph, the view's own for the view —
/// what the graph-generic algorithm entries call.
template <TraversalGraph Graph>
void RangeQueryOver(const NetworkView& view, const Graph& graph,
                    PointId center, double eps, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out) {
  if constexpr (std::is_same_v<Graph, FrozenGraph>) {
    RangeQuery(view, graph, center, eps, ws, out);
  } else {
    RangeQuery(view, center, eps, ws, out);
  }
}

/// Finds the `k` points nearest to `center` by network distance
/// (excluding `center` itself), ordered by ascending distance. Fewer
/// than k results when the reachable point population is smaller.
/// Implemented as an expanding range search with a shrinking bound, in
/// the spirit of the [16] query algorithms the paper builds on.
void KNearestNeighbors(const NetworkView& view, PointId center, uint32_t k,
                       NodeScratch* scratch, std::vector<RangeResult>* out);

/// Frozen-path variant: the INE expansion runs over the snapshot's CSR
/// arrays and reads edge points from its point layer. Bit-identical
/// results.
void KNearestNeighbors(const NetworkView& view, const FrozenGraph& frozen,
                       PointId center, uint32_t k, NodeScratch* scratch,
                       std::vector<RangeResult>* out);

/// Workspace-based variants honoring `ws->cancel` (the INE expansion
/// polls the token like the Dijkstra kernel does). On cancellation
/// `out` is cleared and `ws->cancel.triggered` is set; otherwise
/// results are bit-identical to the NodeScratch overloads above.
void KNearestNeighbors(const NetworkView& view, PointId center, uint32_t k,
                       TraversalWorkspace* ws, std::vector<RangeResult>* out);
void KNearestNeighbors(const NetworkView& view, const FrozenGraph& frozen,
                       PointId center, uint32_t k, TraversalWorkspace* ws,
                       std::vector<RangeResult>* out);

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_DISTANCE_H_
