#include "support/brute_force.h"

#include <algorithm>
#include <cmath>

#include "core/union_find.h"
#include "graph/dijkstra.h"

namespace netclus {

std::vector<std::vector<double>> BruteNodeDistances(const Network& net) {
  NodeId n = net.num_nodes();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInfDist));
  for (NodeId i = 0; i < n; ++i) d[i][i] = 0.0;
  for (const Edge& e : net.Edges()) {
    d[e.u][e.v] = std::min(d[e.u][e.v], e.weight);
    d[e.v][e.u] = d[e.u][e.v];
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      if (d[i][k] == kInfDist) continue;
      for (NodeId j = 0; j < n; ++j) {
        double via = d[i][k] + d[k][j];
        if (via < d[i][j]) d[i][j] = via;
      }
    }
  }
  return d;
}

double BrutePointDistance(const Network& net, const PointSet& points,
                          const std::vector<std::vector<double>>& node_dist,
                          PointId p, PointId q) {
  PointPos pp = points.position(p);
  PointPos qq = points.position(q);
  double wp = net.EdgeWeight(pp.u, pp.v);
  double wq = net.EdgeWeight(qq.u, qq.v);
  double dl_p[2] = {pp.offset, wp - pp.offset};
  double dl_q[2] = {qq.offset, wq - qq.offset};
  NodeId np[2] = {pp.u, pp.v};
  NodeId nq[2] = {qq.u, qq.v};
  double best = kInfDist;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      best = std::min(best, dl_p[x] + node_dist[np[x]][nq[y]] + dl_q[y]);
    }
  }
  if (pp.u == qq.u && pp.v == qq.v) {
    best = std::min(best, std::fabs(pp.offset - qq.offset));
  }
  return best;
}

std::vector<std::vector<double>> BrutePointDistanceMatrix(
    const Network& net, const PointSet& points) {
  std::vector<std::vector<double>> nd = BruteNodeDistances(net);
  PointId n = points.size();
  std::vector<std::vector<double>> pd(n, std::vector<double>(n, 0.0));
  for (PointId i = 0; i < n; ++i) {
    for (PointId j = i + 1; j < n; ++j) {
      pd[i][j] = pd[j][i] = BrutePointDistance(net, points, nd, i, j);
    }
  }
  return pd;
}

Clustering BruteEpsComponents(const std::vector<std::vector<double>>& pd,
                              double eps, uint32_t min_sup) {
  PointId n = static_cast<PointId>(pd.size());
  UnionFind uf(n);
  for (PointId i = 0; i < n; ++i) {
    for (PointId j = i + 1; j < n; ++j) {
      if (pd[i][j] <= eps) uf.Union(i, j);
    }
  }
  Clustering out;
  out.assignment.resize(n);
  for (PointId p = 0; p < n; ++p) {
    out.assignment[p] = static_cast<int>(uf.Find(p));
  }
  NormalizeClustering(&out, min_sup);
  return out;
}

Dendrogram BruteSingleLink(const std::vector<std::vector<double>>& pd) {
  PointId n = static_cast<PointId>(pd.size());
  struct Pair {
    double d;
    PointId a, b;
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (PointId i = 0; i < n; ++i) {
    for (PointId j = i + 1; j < n; ++j) {
      if (pd[i][j] < kInfDist) pairs.push_back(Pair{pd[i][j], i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.d < b.d; });
  Dendrogram dendro(n);
  UnionFind uf(n);
  for (const Pair& pr : pairs) {
    if (uf.Union(pr.a, pr.b)) dendro.AddMerge(pr.a, pr.b, pr.d);
  }
  return dendro;
}

double BruteMedoidAssign(const std::vector<std::vector<double>>& pd,
                         const std::vector<PointId>& medoids,
                         std::vector<int>* assignment) {
  PointId n = static_cast<PointId>(pd.size());
  assignment->assign(n, kNoise);
  double cost = 0.0;
  for (PointId p = 0; p < n; ++p) {
    double best = kInfDist;
    int best_m = kNoise;
    for (size_t m = 0; m < medoids.size(); ++m) {
      if (pd[p][medoids[m]] < best) {
        best = pd[p][medoids[m]];
        best_m = static_cast<int>(m);
      }
    }
    (*assignment)[p] = best_m;
    if (best_m != kNoise) cost += best;
  }
  return cost;
}

std::vector<bool> BruteCoreFlags(const std::vector<std::vector<double>>& pd,
                                 double eps, uint32_t min_pts) {
  PointId n = static_cast<PointId>(pd.size());
  std::vector<bool> core(n, false);
  for (PointId p = 0; p < n; ++p) {
    uint32_t count = 0;
    for (PointId q = 0; q < n; ++q) {
      if (pd[p][q] <= eps) ++count;
    }
    core[p] = count >= min_pts;
  }
  return core;
}

}  // namespace netclus
