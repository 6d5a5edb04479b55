// Tests for the Section 3.2 point-graph transformation and the
// parameter-suggestion helpers.
#include <gtest/gtest.h>

#include "core/parameter_selection.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "support/brute_force.h"
#include "support/point_graph.h"

namespace netclus {
namespace {

TEST(PointGraphTest, ChainOnOneEdge) {
  Network net = MakePathNetwork(2, 10.0);
  PointSetBuilder b;
  for (double off : {2.0, 5.0, 9.0}) b.Add(0, 1, off, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  PointGraph pg = std::move(BuildPointGraph(view).value());
  // A path network yields a path graph: 0-1, 1-2 only.
  EXPECT_EQ(pg.graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(pg.graph.EdgeWeight(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(pg.graph.EdgeWeight(1, 2), 4.0);
  EXPECT_FALSE(pg.graph.HasEdge(0, 2));  // blocked by point 1
}

TEST(PointGraphTest, RingBecomesClique) {
  // The paper's Figure 2b: objects on a ring translate to a clique.
  Network net = MakeRingNetwork(6, 1.0);
  PointSetBuilder b;
  for (NodeId i = 0; i < 6; ++i) b.Add(i, (i + 1) % 6, 0.5, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  PointGraph pg = std::move(BuildPointGraph(view).value());
  // With one object on every ring edge each object connects exactly to
  // its two ring neighbors (all other routes pass through objects): the
  // transformed graph is a 6-cycle. The clique of the paper's Figure 2b
  // needs an object-free bypass arc — covered by the next test.
  EXPECT_EQ(pg.graph.num_edges(), 6u);
  for (PointId p = 0; p < 6; ++p) {
    EXPECT_EQ(pg.graph.neighbors(p).size(), 2u);
  }
}

TEST(PointGraphTest, OpenRingCreatesDenseGraph) {
  // Objects clustered on one arc of a ring: the opposite arc provides an
  // object-free bypass, so far-apart objects gain direct G' edges — the
  // "transformation increases complexity" effect of Section 3.2.
  Network net = MakeRingNetwork(8, 1.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.5, 0);
  b.Add(1, 2, 0.5, 0);
  b.Add(2, 3, 0.5, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  PointGraph pg = std::move(BuildPointGraph(view).value());
  // 0-1 and 1-2 along the arc, plus 0-2 around the free arc: a triangle.
  EXPECT_EQ(pg.graph.num_edges(), 3u);
  EXPECT_TRUE(pg.graph.HasEdge(0, 2));
  EXPECT_DOUBLE_EQ(pg.graph.EdgeWeight(0, 2), 6.0);  // the long way round
}

class PointGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointGraphPropertyTest, ShortestPathsEqualNetworkDistances) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.35, 0.3, seed});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 40, seed + 4)).value();
  InMemoryNetworkView view(g.net, ps);
  PointGraph pg = std::move(BuildPointGraph(view).value());
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  // Dijkstra over G' must reproduce the network distances exactly.
  PointSet empty;
  InMemoryNetworkView gprime(pg.graph, empty);
  TraversalWorkspace ws(gprime.num_nodes());
  for (PointId s = 0; s < 40; s += 5) {
    DijkstraDistances(gprime, {{s, 0.0}}, &ws);
    for (PointId t = 0; t < 40; ++t) {
      ASSERT_NEAR(ws.scratch.Get(t), pd[s][t], 1e-9)
          << "seed " << seed << " " << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointGraphPropertyTest,
                         ::testing::Values(61u, 62u, 63u));

TEST(PointGraphTest, DenserThanSourceNetworkOnClusteredData) {
  // Sparse objects on a sparse network: G' edge count routinely exceeds
  // the object count (the scalability argument of Section 3.2).
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.4, 0.3, 71});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 60, 72)).value();
  InMemoryNetworkView view(g.net, ps);
  PointGraph pg = std::move(BuildPointGraph(view).value());
  EXPECT_GT(pg.graph.num_edges(), 60u);
  EXPECT_GE(pg.candidate_edges, pg.graph.num_edges());
}

// --------------------------------------------- parameter suggestions.

TEST(ParameterSelectionTest, SuggestDeltaQuantilesOfGaps) {
  Network net = MakePathNetwork(2, 10.0);
  PointSetBuilder b;
  for (double off : {1.0, 2.0, 4.0, 8.0}) b.Add(0, 1, off, 0);  // gaps 1,2,4
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EXPECT_DOUBLE_EQ(SuggestDelta(view, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(SuggestDelta(view, 0.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(SuggestDelta(view, 1.0).value(), 4.0);
}

TEST(ParameterSelectionTest, SuggestDeltaNeedsDenseEdges) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(1, 2, 1.0, 0);  // one point per edge
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EXPECT_TRUE(SuggestDelta(view, 0.5).status().IsNotFound());
  EXPECT_TRUE(SuggestDelta(view, 2.0).status().IsInvalidArgument());
}

TEST(ParameterSelectionTest, SuggestedEpsRecoversGeneratedClusters) {
  GeneratedNetwork g = GenerateRoadNetwork({2000, 1.3, 0.3, 81});
  double total = 0.0;
  for (const Edge& e : g.net.Edges()) total += e.weight;
  ClusterWorkloadSpec spec;
  spec.total_points = 3000;
  spec.num_clusters = 5;
  spec.outlier_fraction = 0.01;
  spec.s_init = 0.05 * total / (3.0 * 2970);
  spec.seed = 82;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  EpsSuggestionOptions opts;
  opts.seed = 83;
  Result<double> eps = SuggestEps(view, opts);
  ASSERT_TRUE(eps.ok());
  // The suggestion must land in the workable band: above the typical
  // intra-cluster gap, not absurdly large.
  EXPECT_GT(eps.value(), spec.s_init);
  EXPECT_LT(eps.value(), 50 * w.max_intra_gap);
}

TEST(ParameterSelectionTest, SuggestEpsValidation) {
  Network net = MakePathNetwork(2, 1.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.5, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EXPECT_TRUE(SuggestEps(view, EpsSuggestionOptions{}).status()
                  .IsInvalidArgument());  // one point only
}

}  // namespace
}  // namespace netclus
