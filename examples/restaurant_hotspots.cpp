// The paper's motivating scenario (Section 1): cluster the restaurants of
// a city by their road-network distance to find hotspot areas — input for
// location-based services or a chain scouting a new branch.
//
// A synthetic city road network is generated, restaurant "districts" are
// planted on it, and ε-Link discovers the hotspots. For each hotspot we
// then pick a representative location via a 1-medoid assignment (the
// restaurant minimizing total network distance to its peers).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "eval/evaluation.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_distance.h"
#include "netclus.h"

using namespace netclus;

int main() {
  // --- A city: ~4,000 intersections, typical urban edge ratio.
  GeneratedNetwork city = GenerateRoadNetwork({4000, 1.35, 0.3, 2024});
  double total_length = 0.0;
  for (const Edge& e : city.net.Edges()) total_length += e.weight;

  // --- 900 restaurants: 6 districts plus 10% scattered independents.
  ClusterWorkloadSpec spec;
  spec.total_points = 900;
  spec.num_clusters = 6;
  spec.outlier_fraction = 0.10;
  spec.s_init = 0.02 * total_length / (3.0 * 810);
  spec.seed = 5;
  GeneratedWorkload town =
      std::move(GenerateClusteredPoints(city.net, spec).value());
  InMemoryNetworkView mem(city.net, town.points);
  const NetworkView& view = mem;
  std::printf("city: %u intersections, %zu road segments, %u restaurants\n",
              city.net.num_nodes(), city.net.num_edges(),
              town.points.size());

  // --- Find hotspots: restaurants within eps driving distance chain up.
  EpsLinkOptions opts;
  opts.eps = town.max_intra_gap;
  opts.min_sup = 15;  // a hotspot needs at least 15 restaurants
  Clustering hotspots =
      std::move(RunClustering(view, MakeSpec(opts)).value().clustering);
  ClusterSummary summary = Summarize(hotspots);
  std::printf("hotspots found: %d (%u independents outside any hotspot)\n\n",
              summary.num_clusters, summary.noise_points);

  // --- Representative restaurant per hotspot: the medoid.
  TraversalWorkspace ws(city.net.num_nodes());
  for (int h = 0; h < summary.num_clusters; ++h) {
    std::vector<PointId> members;
    for (PointId p = 0; p < town.points.size(); ++p) {
      if (hotspots.assignment[p] == h) members.push_back(p);
    }
    // Exact medoid over the hotspot (hotspots are small enough).
    PointId best = members.front();
    double best_cost = kInfDist;
    for (PointId cand : members) {
      double cost = 0.0;
      for (PointId other : members) {
        cost += PointNetworkDistance(view, view, cand, other, &ws);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    auto [x, y] = PointCoordinates(city.net, town.points, city.coords, best);
    std::printf(
        "hotspot %d: %3zu restaurants, medoid #%-4u at (%.1f, %.1f), mean "
        "distance to peers %.3f\n",
        h, members.size(), best, x, y,
        best_cost / static_cast<double>(members.size()));
  }

  std::printf("\n--- hotspot map ('.' = independents) ---\n%s",
              AsciiClusterMap(city.net, town.points, city.coords, hotspots,
                              14, 48)
                  .c_str());
  return 0;
}
