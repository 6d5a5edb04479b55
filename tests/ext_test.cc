// Tests for the Section 6 extensions: multi-network combination with
// transition edges and time-dependent weights.
#include <gtest/gtest.h>

#include "core/eps_link.h"
#include "ext/multi_network.h"
#include "ext/time_dependent.h"
#include "gen/network_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_distance.h"
#include "run_helpers.h"

namespace netclus {
namespace {

TEST(MultiNetworkTest, CombinesNodeSpaces) {
  Network a = MakePathNetwork(3, 1.0);
  Network b = MakeRingNetwork(4, 2.0);
  Result<CombinedNetwork> combined =
      CombineNetworks(a, b, {{2, 0, 0.5}});
  ASSERT_TRUE(combined.ok());
  const CombinedNetwork& c = combined.value();
  EXPECT_EQ(c.net.num_nodes(), 7u);
  EXPECT_EQ(c.net.num_edges(), 2u + 4u + 1u);
  EXPECT_EQ(c.offset_b, 3u);
  EXPECT_DOUBLE_EQ(c.net.EdgeWeight(c.MapNodeA(2), c.MapNodeB(0)), 0.5);
  EXPECT_DOUBLE_EQ(c.net.EdgeWeight(c.MapNodeB(0), c.MapNodeB(1)), 2.0);
}

TEST(MultiNetworkTest, RejectsBadTransitions) {
  Network a = MakePathNetwork(2, 1.0);
  Network b = MakePathNetwork(2, 1.0);
  EXPECT_FALSE(CombineNetworks(a, b, {{5, 0, 1.0}}).ok());
  EXPECT_FALSE(CombineNetworks(a, b, {{0, 7, 1.0}}).ok());
  EXPECT_FALSE(CombineNetworks(a, b, {{0, 0, -1.0}}).ok());
}

TEST(MultiNetworkTest, ShortestPathsCrossTransitions) {
  // Two path networks joined in the middle: distances must route across.
  Network a = MakePathNetwork(3, 1.0);  // a0-a1-a2
  Network b = MakePathNetwork(3, 1.0);  // b0-b1-b2
  CombinedNetwork c =
      std::move(CombineNetworks(a, b, {{1, 1, 0.25}}).value());
  PointSet empty;
  InMemoryNetworkView view(c.net, empty);
  TraversalWorkspace ws(view.num_nodes());
  DijkstraDistances(view, {{c.MapNodeA(0), 0.0}}, &ws);
  EXPECT_DOUBLE_EQ(ws.scratch.Get(c.MapNodeB(1)), 1.25);  // a0-a1, hop, b1
  EXPECT_DOUBLE_EQ(ws.scratch.Get(c.MapNodeB(2)), 2.25);
}

TEST(MultiNetworkTest, ClustersSpanBothNetworks) {
  // Dense points near the pier on both networks form ONE cluster across
  // the transition edge.
  Network road = MakePathNetwork(2, 10.0);
  Network canal = MakePathNetwork(2, 10.0);
  CombinedNetwork c =
      std::move(CombineNetworks(road, canal, {{1, 0, 0.2}}).value());
  PointSetBuilder road_b, canal_b;
  road_b.Add(0, 1, 9.5, 0);   // 0.5 from the pier (road node 1)
  road_b.Add(0, 1, 9.9, 0);
  canal_b.Add(0, 1, 0.1, 1);  // 0.1 past the pier on the canal
  canal_b.Add(0, 1, 0.5, 1);
  PointSet road_pts = std::move(std::move(road_b).Build(road)).value();
  PointSet canal_pts = std::move(std::move(canal_b).Build(canal)).value();
  PointSet merged =
      std::move(CombinePointSets(c, road_pts, canal_pts).value());
  ASSERT_EQ(merged.size(), 4u);
  InMemoryNetworkView view(c.net, merged);
  EpsLinkOptions opts;
  opts.eps = 0.6;  // road 9.9 -> pier 0.1 -> hop 0.2 -> canal 0.1 = 0.4
  Clustering result = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(result.num_clusters, 1);
}

TEST(MultiNetworkTest, CombinePointSetsPreservesLabels) {
  Network a = MakePathNetwork(2, 5.0);
  Network b = MakePathNetwork(2, 5.0);
  CombinedNetwork c = std::move(CombineNetworks(a, b, {{1, 0, 1.0}}).value());
  PointSetBuilder ba, bb;
  ba.Add(0, 1, 1.0, 42);
  bb.Add(0, 1, 2.0, 77);
  PointSet pa = std::move(std::move(ba).Build(a)).value();
  PointSet pb = std::move(std::move(bb).Build(b)).value();
  PointSet merged = std::move(CombinePointSets(c, pa, pb).value());
  ASSERT_EQ(merged.size(), 2u);
  // A's points keep lower edge keys, so labels land in order.
  EXPECT_EQ(merged.label(0), 42);
  EXPECT_EQ(merged.label(1), 77);
  EXPECT_EQ(merged.position(1).u, c.MapNodeB(0));
}

TEST(TimeDependentTest, RushHourPeaksAndReverts) {
  TimeProfile profile = RushHourProfile(3.0);
  double morning_peak = profile(8.5, 0, 1);
  double midnight = profile(0.0, 0, 1);
  double evening_peak = profile(17.5, 0, 1);
  EXPECT_NEAR(morning_peak, 3.0, 1e-6);
  EXPECT_NEAR(evening_peak, 3.0, 1e-6);
  EXPECT_LT(midnight, 1.05);
  EXPECT_GE(midnight, 1.0);
}

TEST(TimeDependentTest, SnapshotScalesWeights) {
  Network base = MakePathNetwork(3, 2.0);
  TimeProfile profile = RushHourProfile(2.0);
  Result<Network> snap = SnapshotAt(base, profile, 8.5);
  ASSERT_TRUE(snap.ok());
  EXPECT_NEAR(snap.value().EdgeWeight(0, 1), 4.0, 1e-6);
  Result<Network> night = SnapshotAt(base, profile, 3.0);
  ASSERT_TRUE(night.ok());
  EXPECT_LT(night.value().EdgeWeight(0, 1), 2.2);
}

TEST(TimeDependentTest, SnapshotRejectsNonPositiveProfile) {
  Network base = MakePathNetwork(2, 1.0);
  TimeProfile bad = [](double, NodeId, NodeId) { return 0.0; };
  EXPECT_FALSE(SnapshotAt(base, bad, 0.0).ok());
}

TEST(TimeDependentTest, RescaleKeepsFractionalPositions) {
  Network base = MakePathNetwork(2, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 2.5, 0);  // 25% along
  PointSet pts = std::move(std::move(b).Build(base)).value();
  Network snap =
      std::move(SnapshotAt(base, RushHourProfile(2.0), 8.5).value());
  Result<PointSet> rescaled = RescalePoints(base, snap, pts);
  ASSERT_TRUE(rescaled.ok());
  double w = snap.EdgeWeight(0, 1);
  EXPECT_NEAR(rescaled.value().offset(0) / w, 0.25, 1e-9);
}

TEST(TimeDependentTest, CongestionChangesClusters) {
  // Two groups 1.2 apart off-peak; congestion stretches the gap so an
  // eps of 1.5 joins them at night but not at rush hour.
  Network base = MakePathNetwork(2, 4.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(0, 1, 2.2, 1);
  PointSet pts = std::move(std::move(b).Build(base)).value();
  TimeProfile profile = RushHourProfile(3.0);
  auto cluster_at = [&](double t) {
    Network snap = std::move(SnapshotAt(base, profile, t).value());
    PointSet moved = std::move(RescalePoints(base, snap, pts).value());
    InMemoryNetworkView view(snap, moved);
    EpsLinkOptions opts;
    opts.eps = 1.5;
    return std::move(RunEpsLink(view, opts)).value().num_clusters;
  };
  EXPECT_EQ(cluster_at(3.0), 1);   // night: gap ~1.2 <= 1.5
  EXPECT_EQ(cluster_at(8.5), 2);   // rush hour: gap ~3.6 > 1.5
}

}  // namespace
}  // namespace netclus
