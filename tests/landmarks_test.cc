// LandmarkTables (graph/landmarks.h): the tables hold exact distances
// from farthest-point landmarks, building them moves no traversal
// counter, a snapshot carries them beside its adjacency, and carrying
// them over added edges shares them when no label improves and repairs
// a copy to exactly what fresh searches give otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/exact_length.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network.h"

namespace netclus {
namespace {

constexpr uint32_t kCount = LandmarkTables::kCount;

FrozenGraph Freeze(const Network& net) {
  return FrozenGraph::Materialize(net, std::make_shared<const PointSet>());
}

TEST(LandmarkTablesTest, RowsAreExactDistancesFromFarthestPoints) {
  GeneratedNetwork g = GenerateRoadNetwork({400, 1.3, 0.3, 7});
  FrozenGraph graph = Freeze(g.net);
  const TraversalCounters before = LocalTraversalCounters();
  std::shared_ptr<const LandmarkTables> t = LandmarkTables::Build(graph);
  const TraversalCounters moved = LocalTraversalCounters() - before;
  EXPECT_EQ(moved.settled_nodes, 0u);
  EXPECT_EQ(moved.heap_pushes, 0u);
  EXPECT_EQ(moved.heap_pops, 0u);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_nodes(), graph.num_nodes());
  EXPECT_EQ(t->bytes(), size_t{graph.num_nodes()} * kCount * 16);

  TraversalWorkspace ws(graph.num_nodes());
  std::vector<NodeId> seen;
  for (uint32_t i = 0; i < kCount; ++i) {
    const NodeId l = t->landmarks()[i];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), l), 0) << "repeat " << l;
    seen.push_back(l);
    DijkstraDistances(graph, {DijkstraSource{l, 0.0}}, &ws);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const double want = ws.scratch.Get(v);
      EXPECT_NEAR(FromExact(t->row(v)[i]), want, 1e-12 * want)
          << "landmark " << l << " node " << v;
    }
    // Each landmark after the first is farthest from those before it.
    if (i == 0) continue;
    auto nearest = [&](NodeId v) {
      ExactLength d = kUnreachedLength;
      for (uint32_t j = 0; j < i; ++j) d = std::min(d, t->row(v)[j]);
      return d;
    };
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_TRUE(nearest(v) <= nearest(l)) << "node " << v;
    }
  }
  // Same landmarks, fresh searches: the very same integers.
  EXPECT_TRUE(*t == *LandmarkTables::FromLandmarks(graph, t->landmarks()));
  EXPECT_EQ(LandmarkTables::Build(FrozenGraph()), nullptr);
}

TEST(LandmarkTablesTest, SnapshotsShareTheTablesOfTheirAdjacency) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 9});
  PointSet points = std::move(GenerateUniformPoints(g.net, 100, 10)).value();
  FrozenGraph base =
      FrozenGraph::Materialize(g.net, std::make_shared<const PointSet>(points));
  EXPECT_EQ(base.landmarks(), nullptr);
  std::shared_ptr<const LandmarkTables> t = LandmarkTables::Build(base);
  FrozenGraph with = base.WithLandmarks(t);
  EXPECT_EQ(with.landmarks(), t.get());
  EXPECT_EQ(base.landmarks(), nullptr);  // a new value; the old one keeps none
  EXPECT_TRUE(with.SharesAdjacencyWith(base));
  EXPECT_TRUE(with.SharesPointHandleWith(base));
  EXPECT_EQ(&with.points(), &base.points());
  EXPECT_TRUE(with.BitIdenticalTo(base));
  // A points-only successor shares the adjacency, so the tables too.
  PointSetBuilder more;
  const Edge e = g.net.Edges().front();
  more.Add(e.u, e.v, 0.5 * e.weight, -1);
  PointSetMerge merge;
  std::shared_ptr<const PointSet> merged = std::make_shared<const PointSet>(
      std::move(more).Merge(g.net, points, &merge).value());
  EXPECT_EQ(with.WithPoints(merged, merge.groups).landmarks(), t.get());
  EXPECT_EQ(base.WithPoints(merged, merge.groups).landmarks(), nullptr);
}

TEST(LandmarkTablesTest, CarrySharesUnlessAnAddedEdgeImprovesALabel) {
  GeneratedNetwork g = GenerateRoadNetwork({300, 1.3, 0.3, 12});
  FrozenGraph graph = Freeze(g.net);
  std::shared_ptr<const LandmarkTables> t = LandmarkTables::Build(graph);
  TraversalWorkspace ws(graph.num_nodes());

  // An edge no shorter than the path it parallels improves no label.
  Rng rng(13);
  Network longer = g.net;
  std::vector<Edge> long_edges;
  while (long_edges.size() < 5) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(300));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(300));
    if (u == v || longer.HasEdge(u, v)) continue;
    DijkstraDistances(graph, {DijkstraSource{u, 0.0}}, &ws);
    const double w = ws.scratch.Get(v) + 1.0;
    ASSERT_TRUE(longer.AddEdge(u, v, w).ok());
    long_edges.push_back(Edge{u, v, w});
  }
  FrozenGraph longer_graph = Freeze(longer);
  EXPECT_EQ(LandmarkTables::Carry(t, longer_graph, long_edges), t);

  // A short edge between a landmark's nearest and farthest nodes does.
  const NodeId l = t->landmarks()[0];
  NodeId far = 0;
  for (NodeId v = 0; v < 300; ++v) {
    if (t->row(v)[0] > t->row(far)[0]) far = v;
  }
  const NodeId near = g.net.neighbors(l).front().first;
  ASSERT_FALSE(longer.HasEdge(near, far));
  Network shorter = longer;
  ASSERT_TRUE(shorter.AddEdge(near, far, 0.25).ok());
  std::vector<Edge> added = long_edges;
  added.push_back(Edge{near, far, 0.25});
  FrozenGraph shorter_graph = Freeze(shorter);
  std::shared_ptr<const LandmarkTables> carried =
      LandmarkTables::Carry(t, shorter_graph, added);
  ASSERT_NE(carried, t);
  EXPECT_TRUE(*carried ==
              *LandmarkTables::FromLandmarks(shorter_graph, t->landmarks()));
  EXPECT_FALSE(*carried == *t);
  // The shared tables are untouched: the repair wrote a copy.
  EXPECT_TRUE(*t == *LandmarkTables::FromLandmarks(graph, t->landmarks()));
}

TEST(LandmarkTablesTest, CarryReachesANewlyConnectedPart) {
  // Two paths joined by an added edge: every label of the far part goes
  // from unreached to reached for the landmarks of the near one.
  Network net(8);
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.AddEdge(i, i + 1, 1.0 + i).ok());
    ASSERT_TRUE(net.AddEdge(4 + i, 5 + i, 2.0 + i).ok());
  }
  FrozenGraph graph = Freeze(net);
  std::shared_ptr<const LandmarkTables> t = LandmarkTables::Build(graph);
  ASSERT_TRUE(net.AddEdge(3, 4, 0.5).ok());
  FrozenGraph joined = Freeze(net);
  std::shared_ptr<const LandmarkTables> carried =
      LandmarkTables::Carry(t, joined, {Edge{3, 4, 0.5}});
  ASSERT_NE(carried, t);
  EXPECT_TRUE(*carried ==
              *LandmarkTables::FromLandmarks(joined, t->landmarks()));
  for (NodeId v = 0; v < 8; ++v) {
    for (uint32_t i = 0; i < kCount; ++i) {
      EXPECT_TRUE(carried->row(v)[i] != kUnreachedLength);
    }
  }
}

}  // namespace
}  // namespace netclus
