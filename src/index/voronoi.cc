#include "index/voronoi.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

// A (distance, node, source-object) label of the 2-best multi-source
// Dijkstra.
struct Label {
  double dist;
  NodeId node;
  PointId src;
  bool operator>(const Label& other) const { return dist > other.dist; }
};

void PushLabel(std::vector<Label>* heap, double dist, NodeId node,
               PointId src) {
  heap->push_back(Label{dist, node, src});
  std::push_heap(heap->begin(), heap->end(), std::greater<>());
  ++LocalTraversalCounters().heap_pushes;
}

Label PopLabel(std::vector<Label>* heap) {
  std::pop_heap(heap->begin(), heap->end(), std::greater<>());
  Label top = heap->back();
  heap->pop_back();
  ++LocalTraversalCounters().heap_pops;
  return top;
}

}  // namespace

// Point data always comes from the view; only the relax step touches
// `graph`.
template <TraversalGraph Graph>
Result<VoronoiPrecompute> VoronoiPrecompute::Build(const NetworkView& view,
                                                   const Graph& graph) {
  VoronoiPrecompute vp;
  const NodeId num_nodes = view.num_nodes();
  vp.first_id_.assign(num_nodes, kInvalidPointId);
  vp.first_d_.assign(num_nodes, kInfDist);
  vp.second_id_.assign(num_nodes, kInvalidPointId);
  vp.second_d_.assign(num_nodes, kInfDist);

  // Seed with at most four labels per point-bearing edge: the two
  // smallest-offset points toward u and the two largest toward v (group
  // points are ordered by ascending offset from u, the smaller id).
  // A failed read of a disk-backed view yields no points or weight -1;
  // the view's status() then reports it.
  std::vector<Label> heap;
  std::vector<EdgePoint> pts;
  view.ForEachPointGroup([&](NodeId u, NodeId v, PointId /*first*/,
                             uint32_t count) {
    view.GetEdgePoints(u, v, &pts);
    double w = view.EdgeWeight(u, v);
    if ((pts.size() != count || w < 0.0) && !view.status().ok()) return;
    NETCLUS_CHECK_EQ(pts.size(), count);
    NETCLUS_CHECK_GE(w, 0.0);
    uint32_t seeds = std::min<uint32_t>(2, count);
    for (uint32_t i = 0; i < seeds; ++i) {
      PushLabel(&heap, pts[i].offset, u, pts[i].id);
      const EdgePoint& back = pts[count - 1 - i];
      PushLabel(&heap, w - back.offset, v, back.id);
    }
  });

  NETCLUS_RETURN_IF_ERROR(view.status());

  TraversalCounters& tc = LocalTraversalCounters();
  while (!heap.empty()) {
    Label label = PopLabel(&heap);
    NodeId n = label.node;
    if (vp.first_id_[n] == label.src || vp.second_id_[n] == label.src) {
      continue;  // this source already settled a better label here
    }
    if (vp.first_id_[n] == kInvalidPointId) {
      vp.first_id_[n] = label.src;
      vp.first_d_[n] = label.dist;
    } else if (vp.second_id_[n] == kInvalidPointId) {
      vp.second_id_[n] = label.src;
      vp.second_d_[n] = label.dist;
    } else {
      continue;  // two distinct sources already settled
    }
    ++tc.settled_nodes;
    VisitNeighbors(graph, n, [&](NodeId m, double ew) {
      // A node with both labels settled cannot be improved, and any
      // path through it is dominated by its settled labels — prune.
      if (vp.second_id_[m] != kInvalidPointId) return;
      PushLabel(&heap, label.dist + ew, m, label.src);
    });
  }

  NETCLUS_RETURN_IF_ERROR(view.status());
  return vp;
}

template Result<VoronoiPrecompute> VoronoiPrecompute::Build(
    const NetworkView&, const FrozenGraph&);
template Result<VoronoiPrecompute> VoronoiPrecompute::Build(
    const NetworkView&, const NetworkView&);

}  // namespace netclus
