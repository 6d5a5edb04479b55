// Point-level distance functions of the paper's Section 3.1 and the
// ε-range query over the network ([16]-style expansion) used by DBSCAN.
//
// Each query is one function template over the traversal graph
// (TraversalGraph: a FrozenGraph snapshot or the NetworkView itself),
// instantiated for both in network_distance.cc. The two instantiations
// relax edges in the same order, so their results are bit-identical —
// which is what lets ValidateServedBatch replay a served batch over
// either graph and demand exact payload equality. The unified query
// API in server/query.h (ExecuteQueryInto) dispatches each
// QueryRequest kind onto the function below.
#ifndef NETCLUS_GRAPH_NETWORK_DISTANCE_H_
#define NETCLUS_GRAPH_NETWORK_DISTANCE_H_

#include <vector>

#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

/// Network distance d(p, q) (Definition 4): length of the shortest path
/// between the two points. It runs over `graph` — a FrozenGraph snapshot
/// of `view` (see InMemoryNetworkView::Freeze()) or the view itself;
/// point positions come from `view`.
///
/// Exact: the search adds lengths as integers in units of 2^-64
/// (graph/exact_length.h) and rounds the shortest one to a double once,
/// so the answer is the unique shortest fixed-point length whatever the
/// search explores. A bidirectional Dijkstra, forward from the endpoints
/// of the smaller id's edge and backward from the other point's, that
/// stops once the two heap tops sum to the best path joined so far. Over
/// a snapshot that carries landmark tables (FrozenGraph::WithLandmarks)
/// it keys both heaps with the tables' lower bounds (ALT) and settles far
/// fewer nodes; over the view or a snapshot without tables it runs the
/// plain search. All of them return the same bits.
///
/// The search reuses `ws->forward` and `ws->backward` (sized on first
/// use) and honors its cancellation token (`ws->cancel`, no deadline by
/// default). When the deadline passes mid-search the returned value is
/// garbage: callers must check `ws->cancel.triggered` before using or
/// caching it.
///
/// d(p, q) and d(q, p) are the same bits, since the answer is — what
/// lets a cache keyed on the unordered pair (server/distance_cache.h)
/// serve either direction; the forward side is always the smaller id, so
/// the settle count is the same both ways too.
template <TraversalGraph Graph>
double PointNetworkDistance(const NetworkView& view, const Graph& graph,
                            PointId p, PointId q, TraversalWorkspace* ws);

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
/// itself). Expands `graph` (a snapshot of `view`, or the view itself)
/// around `center` up to distance eps, then inspects each edge incident
/// to a reached node once. Within an edge the points are sorted by
/// offset, so the in-range ones form at most three runs (reached from
/// the smaller endpoint, from the larger one, and — on the center's own
/// edge — directly), found by binary search. The cost is the expansion
/// plus O(log c) per inspected edge holding c points plus one step per
/// emitted point — the edges and points inside the eps region, never |V|
/// or N. Results come in the order edges are inspected (the center edge,
/// then settle order), ascending id within an edge; both graphs give
/// bit-identical results.
///
/// The workspace's heap, settle log, seed list and stamps are reused, so
/// once they and `out` have grown to the largest region seen, a query
/// over a snapshot allocates nothing — the steady
/// state for algorithms that issue one range query per point (DBSCAN).
/// One workspace per concurrent caller: each thread owns its own.
template <TraversalGraph Graph>
void RangeQuery(const NetworkView& view, const Graph& graph, PointId center,
                double eps, TraversalWorkspace* ws,
                std::vector<RangeResult>* out);

/// Node-sourced variant over a snapshot: every point q whose network
/// distance from node `source` is <= `radius`, with that distance, in
/// settle order. Same cost and allocation behavior as RangeQuery.
void NodeRangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                    NodeId source, double radius, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out);

/// Finds the `k` points nearest to `center` by network distance
/// (excluding `center` itself), ordered by ascending distance, ties by
/// ascending PointId. Fewer than k results when the reachable point
/// population is smaller. Implemented as an expanding range search with
/// a shrinking bound over `graph` (a snapshot of `view`, or the view
/// itself; bit-identical results), in the spirit of the [16] query
/// algorithms the paper builds on. The expansion runs on the Dijkstra
/// kernel, so it bumps TraversalCounters and polls `ws->cancel`; on
/// cancellation `out` stays empty and `ws->cancel.triggered` is set.
template <TraversalGraph Graph>
void KNearestNeighbors(const NetworkView& view, const Graph& graph,
                       PointId center, uint32_t k, TraversalWorkspace* ws,
                       std::vector<RangeResult>* out);

}  // namespace netclus

#endif  // NETCLUS_GRAPH_NETWORK_DISTANCE_H_
