// Tests for the in-memory network model, point sets and views.
#include <gtest/gtest.h>

#include <limits>

#include "gen/network_gen.h"
#include "graph/network.h"

namespace netclus {
namespace {

TEST(NetworkTest, AddEdgeValidation) {
  Network net(3);
  EXPECT_TRUE(net.AddEdge(0, 1, 2.0).ok());
  EXPECT_TRUE(net.AddEdge(0, 0, 1.0).IsInvalidArgument());   // self loop
  EXPECT_TRUE(net.AddEdge(1, 0, 1.0).IsInvalidArgument());   // duplicate
  EXPECT_TRUE(net.AddEdge(0, 3, 1.0).IsInvalidArgument());   // out of range
  EXPECT_TRUE(net.AddEdge(1, 2, 0.0).IsInvalidArgument());   // zero weight
  EXPECT_TRUE(net.AddEdge(1, 2, -1.0).IsInvalidArgument());  // negative
  EXPECT_EQ(net.num_edges(), 1u);
}

TEST(NetworkTest, AddEdgeRejectsNonFiniteWeights) {
  Network net(3);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(net.AddEdge(0, 1, inf).IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(0, 1, -inf).IsInvalidArgument());
  EXPECT_TRUE(
      net.AddEdge(0, 1, std::numeric_limits<double>::quiet_NaN())
          .IsInvalidArgument());
  EXPECT_EQ(net.num_edges(), 0u);
}

TEST(NetworkTest, EdgeWeightIsSymmetric) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(2, 1, 3.5).ok());
  EXPECT_DOUBLE_EQ(net.EdgeWeight(1, 2), 3.5);
  EXPECT_DOUBLE_EQ(net.EdgeWeight(2, 1), 3.5);
  EXPECT_LT(net.EdgeWeight(0, 1), 0.0);
  EXPECT_TRUE(net.HasEdge(1, 2));
  EXPECT_FALSE(net.HasEdge(0, 2));
}

TEST(NetworkTest, NeighborsBothDirections) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(0, 2, 2.0).ok());
  EXPECT_EQ(net.neighbors(0).size(), 2u);
  EXPECT_EQ(net.neighbors(1).size(), 1u);
  EXPECT_EQ(net.neighbors(3).size(), 0u);
}

TEST(NetworkTest, EdgesAreCanonicalAndSorted) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(3, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 0, 1.0).ok());
  std::vector<Edge> edges = net.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 2u);
  EXPECT_EQ(edges[1].u, 1u);
  EXPECT_EQ(edges[1].v, 3u);
}

TEST(NetworkTest, Connectivity) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1.0).ok());
  EXPECT_FALSE(net.IsConnected());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(net.IsConnected());
}

TEST(NetworkTest, LargestComponentExtraction) {
  Network net(7);
  // Component A: 0-1-2 (3 nodes), component B: 3-4-5-6 (4 nodes).
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(3, 4, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(4, 5, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(5, 6, 2.0).ok());
  std::vector<NodeId> mapping;
  Network big = Network::LargestComponent(net, &mapping);
  EXPECT_EQ(big.num_nodes(), 4u);
  EXPECT_EQ(big.num_edges(), 3u);
  EXPECT_TRUE(big.IsConnected());
  EXPECT_EQ(mapping[0], kInvalidNodeId);
  ASSERT_NE(mapping[5], kInvalidNodeId);
  EXPECT_DOUBLE_EQ(big.EdgeWeight(mapping[5], mapping[6]), 2.0);
}

TEST(PointSetTest, IdsAreGroupedAndSortedByOffset) {
  Network net = MakePathNetwork(4, 10.0);
  PointSetBuilder b;
  b.Add(2, 3, 4.0, 30);  // later edge
  b.Add(0, 1, 7.0, 11);
  b.Add(0, 1, 2.0, 10);  // same edge, smaller offset -> smaller id
  Result<PointSet> ps = std::move(b).Build(net);
  ASSERT_TRUE(ps.ok());
  const PointSet& p = ps.value();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p.offset(0), 2.0);
  EXPECT_EQ(p.label(0), 10);
  EXPECT_DOUBLE_EQ(p.offset(1), 7.0);
  EXPECT_EQ(p.label(1), 11);
  EXPECT_DOUBLE_EQ(p.offset(2), 4.0);
  EXPECT_EQ(p.label(2), 30);
  EXPECT_EQ(p.position(2).u, 2u);
  EXPECT_EQ(p.position(2).v, 3u);
}

TEST(PointSetTest, RawToFinalMapping) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(1, 2, 9.0, 0);  // raw 0 -> final id 2
  b.Add(0, 1, 5.0, 1);  // raw 1 -> final id 1
  b.Add(0, 1, 1.0, 2);  // raw 2 -> final id 0
  std::vector<PointId> mapping;
  Result<PointSet> ps = std::move(b).Build(net, &mapping);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(mapping, (std::vector<PointId>{2, 1, 0}));
  EXPECT_EQ(ps.value().label(2), 0);
}

TEST(PointSetTest, RejectsInvalidPlacements) {
  Network net = MakePathNetwork(3, 10.0);
  {
    PointSetBuilder b;
    b.Add(0, 2, 1.0, 0);  // no such edge
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
  {
    PointSetBuilder b;
    b.Add(0, 1, 10.5, 0);  // beyond edge weight
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
  {
    PointSetBuilder b;
    b.Add(0, 1, -0.1, 0);  // negative offset
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
}

TEST(PointSetTest, RejectsNaNOffset) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, std::numeric_limits<double>::quiet_NaN(), 0);
  EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
}

TEST(PointSetTest, EndpointOffsetsAllowed) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.0, 0);
  b.Add(0, 1, 10.0, 1);
  Result<PointSet> ps = std::move(b).Build(net);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps.value().size(), 2u);
}

TEST(PointSetTest, EdgePointRange) {
  Network net = MakePathNetwork(4, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(0, 1, 2.0, 0);
  b.Add(2, 3, 3.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  auto [first01, count01] = ps.EdgePointRange(1, 0);  // order-insensitive
  EXPECT_EQ(first01, 0u);
  EXPECT_EQ(count01, 2u);
  auto [first12, count12] = ps.EdgePointRange(1, 2);
  EXPECT_EQ(count12, 0u);
  (void)first12;
  EXPECT_EQ(ps.num_groups(), 2u);
}

TEST(InMemoryViewTest, ExposesNetworkAndPoints) {
  Network net = MakePathNetwork(3, 4.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(1, 2, 3.0, 1);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EXPECT_EQ(view.num_nodes(), 3u);
  EXPECT_EQ(view.num_points(), 2u);
  EXPECT_DOUBLE_EQ(view.EdgeWeight(0, 1), 4.0);

  int neighbor_count = 0;
  view.ForEachNeighbor(1, [&](NodeId m, double w) {
    EXPECT_DOUBLE_EQ(w, 4.0);
    EXPECT_TRUE(m == 0 || m == 2);
    ++neighbor_count;
  });
  EXPECT_EQ(neighbor_count, 2);

  std::vector<EdgePoint> pts;
  view.GetEdgePoints(1, 0, &pts);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].id, 0u);
  EXPECT_DOUBLE_EQ(pts[0].offset, 1.0);

  int groups = 0;
  view.ForEachPointGroup([&](NodeId u, NodeId v, PointId first,
                             uint32_t count) {
    EXPECT_LT(u, v);
    EXPECT_EQ(count, 1u);
    EXPECT_TRUE(first == 0 || first == 1);
    ++groups;
  });
  EXPECT_EQ(groups, 2);
}

TEST(InMemoryViewTest, PointPositionMatchesPointSet) {
  Network net = MakeRingNetwork(5, 2.0);
  PointSetBuilder b;
  b.Add(4, 0, 1.5, 7);  // canonicalizes to (0, 4)
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  PointPos pos = view.PointPosition(0);
  EXPECT_EQ(pos.u, 0u);
  EXPECT_EQ(pos.v, 4u);
  EXPECT_DOUBLE_EQ(pos.offset, 1.5);
}

}  // namespace
}  // namespace netclus
