#include "core/single_link.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/union_find.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

struct PairEntry {
  double dist;
  PointId a, b;  // representative points of the two clusters
  bool operator>(const PairEntry& other) const { return dist > other.dist; }
};

struct NodeEntry {
  double dist;
  NodeId node;
  bool operator>(const NodeEntry& other) const { return dist > other.dist; }
};

template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;

}  // namespace

// The whole run, templated on the traversal graph (the view itself for a
// disk-backed run, a FrozenGraph snapshot on the de-virtualized path).
// Point scans stay on the view; the expansion and edge weights go
// through the graph. Same visit order either way → identical dendrogram.
// The node heap Q bumps the calling thread's TraversalCounters like every
// other traversal; a node expansion is a settle, so the run's settles
// equal `stats.nodes_expanded`.
template <TraversalGraph Graph>
Result<SingleLinkResult> SingleLinkCluster(const NetworkView& view,
                                           const Graph& graph,
                                           const SingleLinkOptions& options) {
  if (options.delta < 0.0) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  if (options.stop_cluster_count == 0) {
    return Status::InvalidArgument("stop_cluster_count must be >= 1");
  }
  const PointId n = view.num_points();
  const NodeId num_nodes = view.num_nodes();
  SingleLinkResult result(n);
  if (n == 0) return result;

  UnionFind uf(n);
  MinHeap<PairEntry> pair_heap;   // P
  MinHeap<NodeEntry> node_heap;   // Q
  std::vector<PointId> nnclus(num_nodes, kInvalidPointId);
  std::vector<double> nndist(num_nodes, kInfDist);

  auto merge_pair = [&](PointId a, PointId b, double dist) {
    if (uf.Find(a) != uf.Find(b)) {
      result.dendrogram.AddMerge(a, b, dist);
      uf.Union(a, b);
    }
  };
  auto push_pair = [&](PointId a, PointId b, double dist) {
    if (dist <= options.delta) {
      merge_pair(a, b, dist);  // scalability heuristic: merge immediately
      return;
    }
    pair_heap.push(PairEntry{dist, a, b});
    result.stats.max_pair_heap =
        std::max(result.stats.max_pair_heap, pair_heap.size());
  };
  TraversalCounters& tc = LocalTraversalCounters();
  auto push_node = [&](NodeId node, double dist) {
    node_heap.push(NodeEntry{dist, node});
    ++tc.heap_pushes;
    result.stats.max_node_heap =
        std::max(result.stats.max_node_heap, node_heap.size());
  };

  // ---- Initialization phase (paper Fig. 8 lines 1-21). One scan of the
  // point groups: intra-edge consecutive pairs feed P directly; the first
  // point seen from each endpoint goes to the per-node table T.
  std::unordered_map<NodeId, std::vector<std::pair<double, PointId>>> table;
  {
    std::vector<EdgePoint> pts;
    view.ForEachPointGroup([&](NodeId u, NodeId v, PointId first,
                               uint32_t count) {
      (void)first;
      (void)count;
      double w = graph.EdgeWeight(u, v);
      view.GetEdgePoints(u, v, &pts);
      tc.points_examined += pts.size();
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        push_pair(pts[i].id, pts[i + 1].id,
                  pts[i + 1].offset - pts[i].offset);
      }
      table[u].emplace_back(pts.front().offset, pts.front().id);
      table[v].emplace_back(w - pts.back().offset, pts.back().id);
    });
  }
  for (auto& [node, tuples] : table) {
    std::sort(tuples.begin(), tuples.end());
    const auto& [d1, c1] = tuples.front();
    nnclus[node] = c1;
    nndist[node] = d1;
    push_node(node, d1);
    // Pairs (nearest cluster, any other adjacent cluster): no other pair
    // via this node can be merged before one containing the nearest.
    for (size_t j = 1; j < tuples.size(); ++j) {
      push_pair(c1, tuples[j].second, d1 + tuples[j].first);
    }
  }
  table.clear();
  result.stats.initial_clusters = uf.num_sets();

  // ---- Expansion phase (lines 22-44).
  std::vector<bool> expanded(num_nodes, false);
  auto gate_merges = [&](double gate) {
    while (!pair_heap.empty() && uf.num_sets() > options.stop_cluster_count) {
      const PairEntry& top = pair_heap.top();
      if (top.dist > gate || top.dist > options.stop_distance) break;
      PairEntry e = top;
      pair_heap.pop();
      merge_pair(e.a, e.b, e.dist);
    }
  };

  while (uf.num_sets() > options.stop_cluster_count && !node_heap.empty()) {
    NodeEntry b = node_heap.top();
    node_heap.pop();
    ++tc.heap_pops;
    // Any pair not yet discovered must connect through some unexpanded
    // node, i.e. has distance >= 2 * b.dist: safe to merge up to that.
    gate_merges(2.0 * b.dist);
    if (uf.num_sets() <= options.stop_cluster_count) break;
    if (2.0 * b.dist > options.stop_distance) break;  // nothing mergeable left
    if (expanded[b.node]) continue;  // stale or duplicate queue entry
    expanded[b.node] = true;
    ++result.stats.nodes_expanded;
    ++tc.settled_nodes;

    VisitNeighbors(graph, b.node, [&](NodeId nz, double w) {
      double via = nndist[b.node] + w;
      if (nnclus[nz] == kInvalidPointId) {
        // First visit of nz.
        nnclus[nz] = nnclus[b.node];
        nndist[nz] = via;
        push_node(nz, via);
      } else if (uf.Find(nnclus[nz]) == uf.Find(nnclus[b.node])) {
        // Same cluster: plain Dijkstra relaxation.
        if (via < nndist[nz]) {
          nndist[nz] = via;
          nnclus[nz] = nnclus[b.node];
          push_node(nz, via);
        }
      } else {
        // Two clusters meet across this edge: record the candidate pair,
        // then relax nz if this side is closer.
        push_pair(nnclus[b.node], nnclus[nz], nndist[b.node] + nndist[nz] + w);
        if (!expanded[nz] && via < nndist[nz]) {
          nnclus[nz] = nnclus[b.node];
          nndist[nz] = via;
          push_node(nz, via);
        }
      }
    });
  }
  // Endgame: every node settled; the remaining exact pairs finish the
  // dendrogram (bounded by stop_distance / stop_cluster_count).
  gate_merges(kInfDist);
  return result;
}

template Result<SingleLinkResult> SingleLinkCluster(
    const NetworkView&, const FrozenGraph&, const SingleLinkOptions&);
template Result<SingleLinkResult> SingleLinkCluster(
    const NetworkView&, const NetworkView&, const SingleLinkOptions&);

}  // namespace netclus
