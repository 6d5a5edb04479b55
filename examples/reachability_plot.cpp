// Network OPTICS in action: one reachability ordering answers every
// density level. The ASCII reachability plot shows the planted clusters
// as valleys; extracting at two different eps' values yields the coarse
// and the fine clustering without touching the network again.
#include <algorithm>
#include <cstdio>

#include "core/optics.h"
#include "eval/evaluation.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"

using namespace netclus;

int main() {
  GeneratedNetwork g = GenerateRoadNetwork({1200, 1.3, 0.3, 31});
  double total_length = 0.0;
  for (const Edge& e : g.net.Edges()) total_length += e.weight;
  ClusterWorkloadSpec spec;
  spec.total_points = 1500;
  spec.num_clusters = 5;
  spec.outlier_fraction = 0.02;
  spec.s_init = 0.05 * total_length / (3.0 * 1470);
  spec.seed = 32;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);

  OpticsOptions opts;
  opts.eps = 4.0 * w.max_intra_gap;
  opts.min_pts = 5;
  FrozenGraph frozen = std::move(view.Freeze()).value();
  OpticsResult r = std::move(OpticsOrder(view, frozen, opts).value());

  // Downsampled ASCII reachability plot (60 columns, 12 rows).
  const int cols = 64, rows = 12;
  double cap = opts.eps;
  std::printf("reachability plot (N = %u points, cap = %.3f):\n\n",
              w.points.size(), cap);
  std::vector<double> col_max(cols, 0.0);
  for (size_t i = 0; i < r.reachability.size(); ++i) {
    int c = static_cast<int>(i * cols / r.reachability.size());
    double v = std::min(cap, r.reachability[i] == kInfDist
                                 ? cap
                                 : r.reachability[i]);
    col_max[c] = std::max(col_max[c], v);
  }
  for (int row = rows; row >= 1; --row) {
    for (int c = 0; c < cols; ++c) {
      std::printf("%c", col_max[c] >= cap * row / rows ? '#' : ' ');
    }
    std::printf("\n");
  }
  std::printf("%s\n", std::string(cols, '-').c_str());
  std::printf("(valleys = clusters, spikes = cluster boundaries/outliers)\n\n");

  for (double frac : {1.0, 0.3}) {
    double eps_prime = frac * opts.eps;
    Clustering c = ExtractDbscanClustering(r, eps_prime, opts.min_pts);
    NormalizeClustering(&c, 10);
    std::printf("extract @ eps' = %.3f: %d clusters, ARI vs truth %.3f\n",
                eps_prime, c.num_clusters,
                AdjustedRandIndex(w.points.labels(), c.assignment,
                                  NoiseHandling::kIgnore));
  }
  return 0;
}
