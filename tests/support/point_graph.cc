#include "support/point_graph.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "graph/dijkstra.h"

namespace netclus {

namespace {
struct HeapEntry {
  double dist;
  NodeId node;
  bool operator>(const HeapEntry& other) const { return dist > other.dist; }
};
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;
}  // namespace

Result<PointGraph> BuildPointGraph(const NetworkView& view) {
  const PointId n = view.num_points();
  PointGraph out{Network(n), 0};
  std::unordered_map<uint64_t, double> best;  // point pair -> min weight
  auto candidate = [&](PointId p, PointId q, double w) {
    if (p == q) return;
    ++out.candidate_edges;
    uint64_t key = EdgeKeyOf(p, q);
    auto [it, inserted] = best.emplace(key, w);
    if (!inserted && w < it->second) it->second = w;
  };

  NodeScratch dist(view.num_nodes());
  std::vector<EdgePoint> pts;
  for (PointId p = 0; p < n; ++p) {
    PointPos pos = view.PointPosition(p);
    double w = view.EdgeWeight(pos.u, pos.v);
    view.GetEdgePoints(pos.u, pos.v, &pts);
    size_t idx = 0;
    while (idx < pts.size() && pts[idx].id != p) ++idx;

    dist.NewEpoch();
    MinHeap heap;
    // Along p's own edge: the adjacent object blocks, otherwise the
    // endpoint node seeds the expansion.
    if (idx > 0) {
      candidate(p, pts[idx - 1].id, pos.offset - pts[idx - 1].offset);
    } else {
      dist.Set(pos.u, pos.offset);
      heap.push(HeapEntry{pos.offset, pos.u});
    }
    if (idx + 1 < pts.size()) {
      candidate(p, pts[idx + 1].id, pts[idx + 1].offset - pos.offset);
    } else {
      dist.Set(pos.v, w - pos.offset);
      heap.push(HeapEntry{w - pos.offset, pos.v});
    }

    // Dijkstra over nodes; an edge holding objects blocks traversal and
    // instead yields a candidate to its nearest object.
    while (!heap.empty()) {
      auto [d, node] = heap.top();
      heap.pop();
      if (d > dist.Get(node)) continue;
      VisitNeighbors(view, node, [&](NodeId m, double we) {
        view.GetEdgePoints(node, m, &pts);
        if (!pts.empty()) {
          const EdgePoint& nearest =
              node < m ? pts.front() : pts.back();
          double dl = node < m ? nearest.offset : we - nearest.offset;
          candidate(p, nearest.id, d + dl);
          return;  // blocked
        }
        double nd = d + we;
        if (nd < dist.Get(m)) {
          dist.Set(m, nd);
          heap.push(HeapEntry{nd, m});
        }
      });
    }
  }
  for (const auto& [key, weight] : best) {
    if (weight <= 0.0) continue;  // coincident objects: zero-length link
    NETCLUS_RETURN_IF_ERROR(
        out.graph.AddEdge(EdgeKeyU(key), EdgeKeyV(key), weight));
  }
  return out;
}

}  // namespace netclus
