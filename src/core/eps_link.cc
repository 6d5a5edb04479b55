#include "core/eps_link.h"

#include <queue>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/edge_points.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

struct QEntry {
  double dist;
  NodeId node;
  bool operator>(const QEntry& other) const { return dist > other.dist; }
};
using MinHeap = std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>>;

// Grows one cluster at a time with the Fig. 6 expansion. The per-node
// cluster distances (NNdist) live in an epoch-reset NodeScratch so a run
// over many clusters never pays O(|V|) re-initialization. Templated on
// the traversal graph (the view itself, or a FrozenGraph snapshot for
// the de-virtualized path, whose PointSet also serves the edge-point
// reads); both instantiations visit edges in the same order, so
// clusterings are bit-identical. The expansion bumps the calling thread's
// TraversalCounters like every other traversal: a push per enqueue, a pop
// per dequeue, and a settle per node expansion (a node re-expanded at an
// improved distance counts again).
template <typename Graph>
class EpsLinkRunner {
 public:
  EpsLinkRunner(const NetworkView& view, const Graph& graph, double eps,
                Clustering* out)
      : view_(view),
        graph_(graph),
        eps_(eps),
        out_(out),
        nndist_(view.num_nodes()),
        reader_(graph),
        tc_(LocalTraversalCounters()) {}

  void GrowCluster(PointId seed, int cluster_id) {
    nndist_.NewEpoch();
    MinHeap q;
    Assign(seed, cluster_id);

    // Initialization: chain along the seed's edge in both directions and
    // enqueue the endpoints that end up within eps of the cluster.
    PointPos pos = view_.PointPosition(seed);
    double w = graph_.EdgeWeight(pos.u, pos.v);
    const EdgePointSpan pts = reader_.Get(pos.u, pos.v);
    // The seed's index on its edge (count when absent: an unreadable
    // edge on a failing store).
    const size_t idx = seed >= pts.first && seed - pts.first < pts.count
                           ? seed - pts.first
                           : pts.count;
    // Toward u (descending offsets). `examined` counts the points each
    // chain tests, the one that stops it included.
    uint64_t examined = 0;
    double last_off = pos.offset;
    for (size_t j = idx; j-- > 0;) {
      const PointId p = pts.first + static_cast<PointId>(j);
      ++examined;
      if (Clustered(p) || last_off - pts.offsets[j] > eps_) break;
      Assign(p, cluster_id);
      last_off = pts.offsets[j];
    }
    MaybeEnqueue(&q, pos.u, last_off);
    // Toward v (ascending offsets).
    last_off = pos.offset;
    for (size_t j = idx + 1; j < pts.count; ++j) {
      const PointId p = pts.first + static_cast<PointId>(j);
      ++examined;
      if (Clustered(p) || pts.offsets[j] - last_off > eps_) break;
      Assign(p, cluster_id);
      last_off = pts.offsets[j];
    }
    tc_.points_examined += examined;
    MaybeEnqueue(&q, pos.v, w - last_off);

    // Expansion: node distances shrink as points join the cluster; a node
    // is re-expanded whenever it is popped with an improved distance.
    while (!q.empty()) {
      QEntry b = q.top();
      q.pop();
      ++tc_.heap_pops;
      if (b.dist >= nndist_.Get(b.node)) continue;
      ++tc_.settled_nodes;
      nndist_.Set(b.node, b.dist);
      VisitNeighbors(graph_, b.node, [&](NodeId nz, double we) {
        TraverseEdge(&q, b, nz, we, cluster_id);
      });
    }
  }

  bool Clustered(PointId p) const { return out_->assignment[p] != kNoise; }

 private:
  void Assign(PointId p, int cluster_id) {
    out_->assignment[p] = cluster_id;
  }

  void MaybeEnqueue(MinHeap* q, NodeId n, double dist) {
    if (dist <= eps_ && dist < nndist_.Get(n)) {
      q->push(QEntry{dist, n});
      ++tc_.heap_pushes;
    }
  }

  // Visits edge (b.node, nz): clusters reachable points on it and
  // re-enqueues whichever endpoints got closer to the cluster.
  void TraverseEdge(MinHeap* q, const QEntry& b, NodeId nz, double we,
                    int cluster_id) {
    const EdgePointSpan pts = reader_.Get(b.node, nz);
    double newd_b = kInfDist;   // new distance from b.node to the cluster
    double newd_nz = kInfDist;  // new distance from nz to the cluster
    if (pts.empty()) {
      newd_nz = b.dist + we;
    } else {
      // Offsets are stored from the canonical (smaller-id) endpoint;
      // traverse from the b.node side.
      const bool forward = b.node < nz;
      const size_t n = pts.count;
      auto at = [&](size_t j) { return forward ? j : n - 1 - j; };
      auto off_from_b = [&](size_t j) {
        const double off = pts.offsets[at(j)];
        return forward ? off : we - off;
      };
      auto point_at = [&](size_t j) {
        return pts.first + static_cast<PointId>(at(j));
      };
      // The points tested: the first, and the chain up to the one that
      // stops it.
      size_t examined = 1;
      if (!Clustered(point_at(0)) && off_from_b(0) + b.dist <= eps_) {
        newd_b = off_from_b(0);
        Assign(point_at(0), cluster_id);
        double last = off_from_b(0);
        newd_nz = we - last;
        for (size_t j = 1; j < n; ++j) {
          ++examined;
          if (Clustered(point_at(j)) || off_from_b(j) - last > eps_) break;
          Assign(point_at(j), cluster_id);
          last = off_from_b(j);
          newd_nz = we - last;
        }
      }
      tc_.points_examined += examined;
      MaybeEnqueue(q, b.node, newd_b);
    }
    MaybeEnqueue(q, nz, newd_nz);
  }

  const NetworkView& view_;
  const Graph& graph_;
  double eps_;
  Clustering* out_;
  NodeScratch nndist_;
  EdgePointReader<Graph> reader_;
  TraversalCounters& tc_;
};

}  // namespace

template <TraversalGraph Graph>
Result<Clustering> EpsLinkCluster(const NetworkView& view, const Graph& graph,
                                  const EpsLinkOptions& options) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  Clustering out;
  out.assignment.assign(view.num_points(), kNoise);
  EpsLinkRunner<Graph> runner(view, graph, options.eps, &out);
  int next_cluster = 0;
  for (PointId m = 0; m < view.num_points(); ++m) {
    if (!runner.Clustered(m)) {
      runner.GrowCluster(m, next_cluster++);
    }
  }
  NormalizeClustering(&out, options.min_sup);
  return out;
}

template Result<Clustering> EpsLinkCluster(const NetworkView&,
                                           const FrozenGraph&,
                                           const EpsLinkOptions&);
template Result<Clustering> EpsLinkCluster(const NetworkView&,
                                           const NetworkView&,
                                           const EpsLinkOptions&);

}  // namespace netclus
