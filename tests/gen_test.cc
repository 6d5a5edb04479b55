// Tests for the road-network and clustered-workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_distance.h"

namespace netclus {
namespace {

TEST(NetworkGenTest, ProducesConnectedNetworkOfRequestedSize) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    GeneratedNetwork g = GenerateRoadNetwork({500, 1.25, 0.3, seed});
    EXPECT_GE(g.net.num_nodes(), 500u);
    EXPECT_LE(g.net.num_nodes(), 550u);  // grid rounding slack
    EXPECT_TRUE(g.net.IsConnected());
    EXPECT_EQ(g.coords.size(), g.net.num_nodes());
  }
}

TEST(NetworkGenTest, HitsEdgeRatioTarget) {
  GeneratedNetwork g = GenerateRoadNetwork({2000, 1.3, 0.3, 4});
  double ratio = static_cast<double>(g.net.num_edges()) / g.net.num_nodes();
  EXPECT_NEAR(ratio, 1.3, 0.02);
}

TEST(NetworkGenTest, TreeLikeRatioStillConnected) {
  GeneratedNetwork g = GenerateRoadNetwork({1000, 1.0, 0.3, 5});
  EXPECT_TRUE(g.net.IsConnected());
  // A connected graph needs >= n-1 edges; ratio 1.0 keeps it sparse.
  EXPECT_LE(g.net.num_edges(), static_cast<size_t>(g.net.num_nodes() * 1.05));
}

TEST(NetworkGenTest, WeightsAreEuclideanDistances) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 6});
  for (const Edge& e : g.net.Edges()) {
    double dx = g.coords[e.u].first - g.coords[e.v].first;
    double dy = g.coords[e.u].second - g.coords[e.v].second;
    ASSERT_NEAR(e.weight, std::sqrt(dx * dx + dy * dy), 1e-12);
    ASSERT_GT(e.weight, 0.0);
  }
}

TEST(NetworkGenTest, DeterministicForSeed) {
  GeneratedNetwork a = GenerateRoadNetwork({300, 1.3, 0.3, 7});
  GeneratedNetwork b = GenerateRoadNetwork({300, 1.3, 0.3, 7});
  EXPECT_EQ(a.net.num_edges(), b.net.num_edges());
  EXPECT_EQ(a.net.Edges().size(), b.net.Edges().size());
  auto ea = a.net.Edges(), eb = b.net.Edges();
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u);
    EXPECT_EQ(ea[i].v, eb[i].v);
    EXPECT_DOUBLE_EQ(ea[i].weight, eb[i].weight);
  }
}

TEST(NetworkGenTest, PresetsScaleNodeCounts) {
  RoadNetworkSpec ol = SpecOL(1.0);
  EXPECT_EQ(ol.target_nodes, 6105u);
  RoadNetworkSpec ol_small = SpecOL(0.1);
  EXPECT_NEAR(ol_small.target_nodes, 611, 2);
  EXPECT_NEAR(SpecSF(1.0).edge_ratio, 223001.0 / 174956.0, 1e-9);
  EXPECT_NEAR(SpecNA(1.0).edge_ratio, 179179.0 / 175813.0, 1e-9);
  EXPECT_EQ(SpecTG(1.0).target_nodes, 18263u);
}

TEST(NetworkGenTest, BfsSubnetworkIsConnectedInducedSubgraph) {
  GeneratedNetwork g = GenerateRoadNetwork({400, 1.3, 0.3, 8});
  std::vector<NodeId> mapping;
  Network sub = BfsSubnetwork(g.net, 0, 150, &mapping);
  EXPECT_EQ(sub.num_nodes(), 150u);
  EXPECT_TRUE(sub.IsConnected());
  // Every kept edge must exist in the original with the same weight.
  NodeId kept = 0;
  for (NodeId old = 0; old < g.net.num_nodes(); ++old) {
    if (mapping[old] != kInvalidNodeId) ++kept;
  }
  EXPECT_EQ(kept, 150u);
}

TEST(NetworkGenTest, TinyTopologies) {
  Network path = MakePathNetwork(4, 2.0);
  EXPECT_EQ(path.num_edges(), 3u);
  Network ring = MakeRingNetwork(5, 1.0);
  EXPECT_EQ(ring.num_edges(), 5u);
  EXPECT_TRUE(ring.IsConnected());
  Network grid = MakeGridNetwork(3, 4, 1.0);
  EXPECT_EQ(grid.num_nodes(), 12u);
  EXPECT_EQ(grid.num_edges(), 3u * 3 + 2u * 4);  // 17
  Network star = MakeStarNetwork(6, 1.5);
  EXPECT_EQ(star.num_edges(), 5u);
  EXPECT_EQ(star.neighbors(0).size(), 5u);
}

// ---------------------------------------------------------- workloads.

TEST(WorkloadGenTest, ExactCountsAndLabels) {
  GeneratedNetwork g = GenerateRoadNetwork({300, 1.3, 0.3, 10});
  ClusterWorkloadSpec spec;
  spec.total_points = 1000;
  spec.num_clusters = 8;
  spec.outlier_fraction = 0.01;
  spec.s_init = 0.05;
  spec.seed = 11;
  Result<GeneratedWorkload> w = GenerateClusteredPoints(g.net, spec);
  ASSERT_TRUE(w.ok());
  const PointSet& ps = w.value().points;
  EXPECT_EQ(ps.size(), 1000u);
  std::vector<PointId> per_label(8, 0);
  PointId outliers = 0;
  for (PointId p = 0; p < ps.size(); ++p) {
    int label = ps.label(p);
    ASSERT_GE(label, -1);
    ASSERT_LT(label, 8);
    if (label == -1) {
      ++outliers;
    } else {
      ++per_label[label];
    }
  }
  EXPECT_EQ(outliers, 10u);  // 1% of 1000
  for (int c = 0; c < 8; ++c) {
    EXPECT_NEAR(per_label[c], 990 / 8, 1);  // near-equal sizes
  }
}

TEST(WorkloadGenTest, SeedsAreFirstPointsOfTheirClusters) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 12});
  ClusterWorkloadSpec spec;
  spec.total_points = 400;
  spec.num_clusters = 5;
  spec.s_init = 0.05;
  spec.seed = 13;
  GeneratedWorkload w =
      std::move(GenerateClusteredPoints(g.net, spec).value());
  ASSERT_EQ(w.cluster_seeds.size(), 5u);
  std::set<PointId> distinct(w.cluster_seeds.begin(), w.cluster_seeds.end());
  EXPECT_EQ(distinct.size(), 5u);
  for (uint32_t c = 0; c < 5; ++c) {
    EXPECT_EQ(w.points.label(w.cluster_seeds[c]), static_cast<int>(c));
  }
}

TEST(WorkloadGenTest, ClustersAreEpsConnectedAtMaxGap) {
  // Every consecutive generated pair is at most max_intra_gap apart, so
  // each cluster must be a single eps-component at eps = max_intra_gap.
  GeneratedNetwork g = GenerateRoadNetwork({150, 1.3, 0.3, 14});
  ClusterWorkloadSpec spec;
  spec.total_points = 300;
  spec.num_clusters = 3;
  spec.outlier_fraction = 0.0;
  spec.s_init = 0.03;
  spec.seed = 15;
  GeneratedWorkload w =
      std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView mem(g.net, w.points);
  const NetworkView& view = mem;
  TraversalWorkspace ws(g.net.num_nodes());
  // Check connectivity within each label via a union-find over pairs
  // within max_intra_gap.
  for (int label = 0; label < 3; ++label) {
    std::vector<PointId> members;
    for (PointId p = 0; p < w.points.size(); ++p) {
      if (w.points.label(p) == label) members.push_back(p);
    }
    ASSERT_EQ(members.size(), 100u);
    // BFS over the eps graph restricted to this cluster.
    std::set<PointId> remaining(members.begin(), members.end());
    std::vector<PointId> frontier{members[0]};
    remaining.erase(members[0]);
    while (!frontier.empty()) {
      PointId p = frontier.back();
      frontier.pop_back();
      std::vector<RangeResult> nbrs;
      RangeQuery(view, view, p, w.max_intra_gap * (1.0 + 1e-9), &ws, &nbrs);
      for (const RangeResult& r : nbrs) {
        auto it = remaining.find(r.id);
        if (it != remaining.end()) {
          remaining.erase(it);
          frontier.push_back(r.id);
        }
      }
    }
    EXPECT_TRUE(remaining.empty())
        << "cluster " << label << " split: " << remaining.size()
        << " unreachable";
  }
}

TEST(WorkloadGenTest, MeanSpacingMatchesSpec) {
  // Generator spacing sanity: the mean consecutive same-edge gap must sit
  // in the band the spec implies (between 0.5 s_init and 1.5 s_init F).
  GeneratedNetwork g = GenerateRoadNetwork({400, 1.3, 0.3, 16});
  ClusterWorkloadSpec spec;
  spec.total_points = 2000;
  spec.num_clusters = 1;
  spec.outlier_fraction = 0.0;
  spec.s_init = 0.02;
  spec.magnification = 5.0;
  spec.seed = 17;
  GeneratedWorkload w =
      std::move(GenerateClusteredPoints(g.net, spec).value());
  // Measure consecutive same-edge gaps; their global mean should land
  // around 3 * s_init (the average of s_init and s_init * F for F = 5).
  double total_gap = 0.0;
  int gap_count = 0;
  for (size_t gi = 0; gi < w.points.num_groups(); ++gi) {
    const PointSet::Group& grp = w.points.group(gi);
    for (uint32_t i = 1; i < grp.count; ++i) {
      total_gap += w.points.offset(grp.first + i) -
                   w.points.offset(grp.first + i - 1);
      ++gap_count;
    }
  }
  ASSERT_GT(gap_count, 100);
  double mean_gap = total_gap / gap_count;
  EXPECT_GT(mean_gap, spec.s_init * 0.5);
  EXPECT_LT(mean_gap, spec.s_init * 5.0);
}

TEST(WorkloadGenTest, ValidatesSpec) {
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.3, 0.3, 18});
  ClusterWorkloadSpec spec;
  spec.total_points = 10;
  spec.num_clusters = 0;
  EXPECT_TRUE(
      GenerateClusteredPoints(g.net, spec).status().IsInvalidArgument());
  spec.num_clusters = 20;  // more clusters than points
  EXPECT_TRUE(
      GenerateClusteredPoints(g.net, spec).status().IsInvalidArgument());
  spec.num_clusters = 2;
  spec.s_init = 0.0;
  EXPECT_TRUE(
      GenerateClusteredPoints(g.net, spec).status().IsInvalidArgument());
  spec.s_init = 0.1;
  spec.outlier_fraction = 1.0;
  EXPECT_TRUE(
      GenerateClusteredPoints(g.net, spec).status().IsInvalidArgument());
}

TEST(WorkloadGenTest, UniformPointsStayOnEdges) {
  GeneratedNetwork g = GenerateRoadNetwork({100, 1.3, 0.3, 19});
  Result<PointSet> ps = GenerateUniformPoints(g.net, 500, 20);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps.value().size(), 500u);
  for (PointId p = 0; p < 500; ++p) {
    PointPos pos = ps.value().position(p);
    double w = g.net.EdgeWeight(pos.u, pos.v);
    ASSERT_GE(w, 0.0);
    ASSERT_GE(pos.offset, 0.0);
    ASSERT_LE(pos.offset, w);
    EXPECT_EQ(ps.value().label(p), -1);
  }
}

TEST(WorkloadGenTest, DeterministicForSeed) {
  GeneratedNetwork g = GenerateRoadNetwork({100, 1.3, 0.3, 21});
  ClusterWorkloadSpec spec;
  spec.total_points = 200;
  spec.num_clusters = 4;
  spec.s_init = 0.05;
  spec.seed = 22;
  GeneratedWorkload a = std::move(GenerateClusteredPoints(g.net, spec).value());
  GeneratedWorkload b = std::move(GenerateClusteredPoints(g.net, spec).value());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (PointId p = 0; p < a.points.size(); ++p) {
    ASSERT_DOUBLE_EQ(a.points.offset(p), b.points.offset(p));
    ASSERT_EQ(a.points.label(p), b.points.label(p));
  }
  EXPECT_EQ(a.cluster_seeds, b.cluster_seeds);
}

}  // namespace
}  // namespace netclus
