#include "core/optics.h"

#include <algorithm>
#include <queue>

#include "graph/dijkstra.h"
#include "graph/network_distance.h"

namespace netclus {

namespace {
struct SeedEntry {
  double reach;
  PointId point;
  bool operator>(const SeedEntry& other) const { return reach > other.reach; }
};
using SeedHeap =
    std::priority_queue<SeedEntry, std::vector<SeedEntry>, std::greater<>>;

// min_pts-th smallest distance within the eps-neighborhood (the point
// itself is a member at distance 0), or kInfDist when not core.
double CoreDistance(std::vector<RangeResult>* neighborhood,
                    uint32_t min_pts) {
  if (neighborhood->size() < min_pts) return kInfDist;
  std::nth_element(neighborhood->begin(),
                   neighborhood->begin() + (min_pts - 1), neighborhood->end(),
                   [](const RangeResult& a, const RangeResult& b) {
                     return a.dist < b.dist;
                   });
  return (*neighborhood)[min_pts - 1].dist;
}
}  // namespace

template <TraversalGraph Graph>
Result<OpticsResult> OpticsOrder(const NetworkView& view, const Graph& graph,
                                 const OpticsOptions& options) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (options.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be positive");
  }
  const PointId n = view.num_points();
  OpticsResult res;
  res.order.reserve(n);
  res.reachability.reserve(n);
  res.core_distance.assign(n, kInfDist);

  std::vector<bool> processed(n, false);
  std::vector<double> reach_best(n, kInfDist);
  TraversalWorkspace ws(view.num_nodes());
  std::vector<RangeResult> neighborhood;

  // Emits `p`, computes its core distance, and relaxes its unprocessed
  // neighbors into the seed heap.
  auto process = [&](PointId p, double reachability, SeedHeap* seeds) {
    processed[p] = true;
    res.order.push_back(p);
    res.reachability.push_back(reachability);
    RangeQuery(view, graph, p, options.eps, &ws, &neighborhood);
    double cd = CoreDistance(&neighborhood, options.min_pts);
    res.core_distance[p] = cd;
    if (cd == kInfDist) return;
    for (const RangeResult& r : neighborhood) {
      if (processed[r.id]) continue;
      double new_reach = std::max(cd, r.dist);
      if (new_reach < reach_best[r.id]) {
        reach_best[r.id] = new_reach;
        seeds->push(SeedEntry{new_reach, r.id});
      }
    }
  };

  for (PointId p0 = 0; p0 < n; ++p0) {
    if (processed[p0]) continue;
    SeedHeap seeds;
    process(p0, kInfDist, &seeds);
    while (!seeds.empty()) {
      auto [reach, q] = seeds.top();
      seeds.pop();
      if (processed[q] || reach > reach_best[q]) continue;  // stale
      process(q, reach, &seeds);
    }
  }
  return res;
}

template Result<OpticsResult> OpticsOrder(const NetworkView&,
                                          const FrozenGraph&,
                                          const OpticsOptions&);
template Result<OpticsResult> OpticsOrder(const NetworkView&,
                                          const NetworkView&,
                                          const OpticsOptions&);

Clustering ExtractDbscanClustering(const OpticsResult& optics,
                                   double eps_prime, uint32_t min_pts) {
  (void)min_pts;  // baked into the ordering's core distances
  Clustering out;
  out.assignment.assign(optics.order.size(), kNoise);
  int current = kNoise;
  int next_id = 0;
  for (size_t i = 0; i < optics.order.size(); ++i) {
    PointId p = optics.order[i];
    if (optics.reachability[i] > eps_prime) {
      if (optics.core_distance[p] <= eps_prime) {
        current = next_id++;
        out.assignment[p] = current;
      } else {
        current = kNoise;  // noise (may still be claimed as border below)
      }
    } else if (current != kNoise) {
      out.assignment[p] = current;
    }
  }
  out.num_clusters = next_id;
  return out;
}

}  // namespace netclus
