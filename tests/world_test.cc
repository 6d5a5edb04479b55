// World: the served world and the builder of its epochs, tested on one
// thread with no QueryServer. Every incremental Build must equal the
// full build of the same world bit for bit; an epoch's PointSet is the
// one its graph co-owns and is never copied on publish; a clustering run
// over an epoch's graph equals one that freezes its own; a checkpoint
// must restore the world it was taken from and lists the edges in the
// order they were admitted; a carried identity map translates every
// ObjectId as a fresh one does; a rejected mutation must
// leave the world, its ObjectId watermark included, untouched; landmark
// tables, once built, ride on every later epoch, shared while no label
// improves and repaired to fresh searches' values when one does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network.h"
#include "netclus.h"
#include "server/epoch_manager.h"
#include "server/update.h"
#include "server/wal.h"
#include "server/world.h"

namespace netclus {
namespace {

struct Scenario {
  GeneratedNetwork gen;
  PointSet points;
  double eps = 0.0;

  Scenario(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
    double sum = 0.0;
    for (const Edge& e : gen.net.Edges()) sum += e.weight;
    eps = 0.6 * sum / static_cast<double>(gen.net.num_edges());
  }
};

// Random insert-only mutations over a mirror of the world's network: an
// AddPoint on an existing edge, or an AddEdge between two nodes not yet
// adjacent, with a weight around eps so some new edges link clusters.
class Mutator {
 public:
  Mutator(const Network& net, double eps, uint64_t seed)
      : net_(net), eps_(eps), rng_(seed) {}

  NetworkUpdate Next(double point_share) {
    if (rng_.NextDouble() < point_share) {
      const std::vector<Edge> edges = net_.Edges();
      const Edge& e = edges[rng_.NextBounded(edges.size())];
      return NetworkUpdate::AddPoint(e.u, e.v, rng_.NextDouble() * e.weight);
    }
    for (;;) {
      const NodeId u = static_cast<NodeId>(rng_.NextBounded(net_.num_nodes()));
      const NodeId v = static_cast<NodeId>(rng_.NextBounded(net_.num_nodes()));
      if (u == v || net_.HasEdge(u, v)) continue;
      const double w = eps_ * (0.1 + 1.4 * rng_.NextDouble());
      EXPECT_TRUE(net_.AddEdge(u, v, w).ok());
      return NetworkUpdate::AddEdge(u, v, w);
    }
  }

 private:
  Network net_;
  double eps_;
  Rng rng_;
};

World::Epoch BuildOrDie(Result<World::Epoch> built) {
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? std::move(built).value() : World::Epoch{};
}

void ExpectSameIdsAndClusters(const World::Epoch& got,
                              const World::Epoch& want) {
  ASSERT_NE(got.ids, nullptr);
  ASSERT_NE(want.ids, nullptr);
  ASSERT_EQ(got.ids->num_points(), want.ids->num_points());
  for (PointId p = 0; p < got.ids->num_points(); ++p) {
    ASSERT_EQ(got.ids->ObjectOf(p), want.ids->ObjectOf(p)) << "point " << p;
  }
  ASSERT_EQ(got.clusters == nullptr, want.clusters == nullptr);
  if (got.clusters != nullptr) {
    EXPECT_EQ(got.clusters->clustering.num_clusters,
              want.clusters->clustering.num_clusters);
    EXPECT_EQ(got.clusters->clustering.assignment,
              want.clusters->clustering.assignment);
  }
}

// Graph, PointSet, identity map and clustering, bit for bit.
void ExpectSameEpoch(const World::Epoch& got, const World::Epoch& want) {
  ASSERT_NE(got.graph, nullptr);
  ASSERT_NE(want.graph, nullptr);
  EXPECT_TRUE(got.graph->BitIdenticalTo(*want.graph));
  EXPECT_TRUE(got.graph->points().BitIdenticalTo(want.graph->points()));
  ExpectSameIdsAndClusters(got, want);
}

// Each node's (neighbor, weight) row as a sorted list: a restored
// network holds the same edges as the live one, but its rows list them
// in Edges() order rather than in the order they were added.
std::vector<std::vector<std::pair<NodeId, double>>> SortedRows(
    const FrozenGraph& g) {
  std::vector<std::vector<std::pair<NodeId, double>>> rows(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    g.ForEachNeighbor(n,
                      [&](NodeId m, double w) { rows[n].emplace_back(m, w); });
    std::sort(rows[n].begin(), rows[n].end());
  }
  return rows;
}

void ExpectSameCheckpoint(const CheckpointState& got,
                          const CheckpointState& want) {
  EXPECT_EQ(got.next_object_id, want.next_object_id);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (size_t i = 0; i < got.edges.size(); ++i) {
    const CheckpointEdge& a = got.edges[i];
    const CheckpointEdge& b = want.edges[i];
    EXPECT_TRUE(a.u == b.u && a.v == b.v && a.oid == b.oid &&
                std::memcmp(&a.weight, &b.weight, sizeof(double)) == 0)
        << "edge " << i;
  }
  ASSERT_EQ(got.points.size(), want.points.size());
  for (size_t i = 0; i < got.points.size(); ++i) {
    const CheckpointPoint& a = got.points[i];
    const CheckpointPoint& b = want.points[i];
    EXPECT_TRUE(a.u == b.u && a.v == b.v && a.label == b.label &&
                a.oid == b.oid &&
                std::memcmp(&a.offset, &b.offset, sizeof(double)) == 0)
        << "point " << i;
  }
}

std::vector<std::pair<std::string, std::optional<ClusterSpec>>> Specs(
    double eps) {
  DbscanOptions dbscan;
  dbscan.eps = eps;
  dbscan.min_pts = 3;
  return {{"no spec", std::nullopt},
          {"eps-link", MakeSpec(EpsLinkOptions{eps, 2})},
          {"dbscan", MakeSpec(dbscan)}};
}

// One mutation per build and batches of three, point-heavy and mixed:
// every Build after the first is incremental and equals BuildFull of
// the same world. An ε-Link spec merges its components every time.
TEST(WorldTest, IncrementalBuildsMatchTheFullBuild) {
  Scenario s(80, 120, 7);
  for (const auto& [name, spec] : Specs(s.eps)) {
    for (int batch : {1, 3}) {
      SCOPED_TRACE(name + ", batches of " + std::to_string(batch));
      WorldOptions options;
      options.cluster_spec = spec;
      World world = World::Boot(s.gen.net, s.points, options);
      const World::Epoch boot_full = BuildOrDie(world.BuildFull());
      const World::Epoch boot = BuildOrDie(world.Build());
      EXPECT_FALSE(boot.incremental);
      ExpectSameEpoch(boot, boot_full);
      Mutator mutator(s.gen.net, s.eps, 11 + batch);
      for (int round = 0; round < 10; ++round) {
        for (int m = 0; m < batch; ++m) {
          ASSERT_TRUE(world.Apply(mutator.Next(round < 5 ? 0.9 : 0.5)).ok());
        }
        const World::Epoch full = BuildOrDie(world.BuildFull());
        const World::Epoch epoch = BuildOrDie(world.Build());
        EXPECT_FALSE(full.incremental);
        EXPECT_TRUE(epoch.incremental);
        EXPECT_EQ(epoch.recluster_incremental,
                  spec.has_value() &&
                      spec->algorithm == Algorithm::kEpsLink);
        ExpectSameEpoch(epoch, full);
        if (HasFailure()) return;
      }
    }
  }
}

// Mixed publishes over several seeds with every oracle on: each
// incremental Build checks its PointSet merge, its carried point handle
// and its ε-Link stage against the full builds (a divergence fails the
// Build), and each epoch's clustering must equal BuildFull's full
// RunClustering label for label. At min_sup 3 components below it are
// noise, and the sweep must see noise points cross into clusters.
TEST(WorldTest, EpsLinkSweepMatchesFullRunClustering) {
  for (uint32_t min_sup : {1u, 3u}) {
    SCOPED_TRACE("min_sup " + std::to_string(min_sup));
    int publishes = 0;
    bool saw_noise = false;
    bool saw_noise_join = false;
    for (uint64_t seed : {101u, 102u, 103u, 104u}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      Scenario s(70, 90, seed);
      WorldOptions options;
      options.cluster_spec = MakeSpec(EpsLinkOptions{s.eps, min_sup});
      options.validate = true;
      World world = World::Boot(s.gen.net, s.points, options);
      BuildOrDie(world.Build());
      Mutator mutator(s.gen.net, s.eps, seed * 7);
      Rng rng(seed);
      std::vector<ObjectId> was_noise;
      for (int round = 0; round < 30; ++round) {
        const uint64_t batch = 1 + rng.NextBounded(3);
        for (uint64_t m = 0; m < batch; ++m) {
          ASSERT_TRUE(world.Apply(mutator.Next(0.7)).ok());
        }
        const World::Epoch epoch = BuildOrDie(world.Build());
        const World::Epoch full = BuildOrDie(world.BuildFull());
        ASSERT_TRUE(epoch.recluster_incremental);
        ExpectSameIdsAndClusters(epoch, full);
        if (HasFailure()) return;
        ++publishes;
        const std::vector<int>& labels = epoch.clusters->clustering.assignment;
        for (ObjectId oid : was_noise) {
          if (labels[epoch.ids->PointOf(oid)] != kNoise) saw_noise_join = true;
        }
        was_noise.clear();
        for (PointId p = 0; p < labels.size(); ++p) {
          if (labels[p] == kNoise) was_noise.push_back(epoch.ids->ObjectOf(p));
        }
        saw_noise = saw_noise || !was_noise.empty();
      }
    }
    EXPECT_EQ(publishes, 120);
    EXPECT_EQ(saw_noise, min_sup > 1);
    EXPECT_EQ(saw_noise_join, min_sup > 1);
  }
}

// The cache and the CSR adjacency ride along while no edge is added and
// are replaced by the first build after an AddEdge, and only by that
// one.
TEST(WorldTest, CacheIsSharedUntilAnEdgeIsAdded) {
  Scenario s(40, 60, 17);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  const World::Epoch boot = BuildOrDie(world.Build());
  ASSERT_NE(boot.cache, nullptr);
  const std::vector<Edge> edges = s.gen.net.Edges();
  ASSERT_TRUE(world
                  .Apply(NetworkUpdate::AddPoint(edges[0].u, edges[0].v,
                                                 0.5 * edges[0].weight))
                  .ok());
  const World::Epoch points_only = BuildOrDie(world.Build());
  EXPECT_EQ(points_only.cache, boot.cache);
  EXPECT_TRUE(points_only.graph->SharesAdjacencyWith(*boot.graph));
  NodeId v = 1;
  while (s.gen.net.HasEdge(0, v)) ++v;
  ASSERT_TRUE(world.Apply(NetworkUpdate::AddEdge(0, v, 1.0)).ok());
  const World::Epoch with_edge = BuildOrDie(world.Build());
  ASSERT_NE(with_edge.cache, nullptr);
  EXPECT_NE(with_edge.cache, boot.cache);
  EXPECT_FALSE(with_edge.graph->SharesAdjacencyWith(*points_only.graph));
  EXPECT_TRUE(with_edge.graph->HasEdge(0, v));
  // The edge is published now; the next point-only build keeps its cache
  // and its adjacency.
  ASSERT_TRUE(world
                  .Apply(NetworkUpdate::AddPoint(edges[1].u, edges[1].v,
                                                 0.5 * edges[1].weight))
                  .ok());
  const World::Epoch after_edge = BuildOrDie(world.Build());
  EXPECT_EQ(after_edge.cache, with_edge.cache);
  EXPECT_TRUE(after_edge.graph->SharesAdjacencyWith(*with_edge.graph));

  WorldOptions no_cache;
  no_cache.cache_capacity = 0;
  World uncached = World::Boot(s.gen.net, s.points, no_cache);
  EXPECT_EQ(BuildOrDie(uncached.Build()).cache, nullptr);
}

// An epoch's PointSet exists once: Build merges it, the epoch's graph
// co-owns it and the published snapshot serves that very object. Each
// points-only epoch shares its predecessor's adjacency but merges a
// PointSet of its own, and leaves the predecessor's untouched.
TEST(WorldTest, PublishedEpochServesTheMergedPointSet) {
  Scenario s(40, 60, 19);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  const World::Epoch boot = BuildOrDie(world.Build());
  const Edge e = s.gen.net.Edges().front();
  ASSERT_TRUE(world.Apply(NetworkUpdate::AddPoint(e.u, e.v, 0.0)).ok());
  const World::Epoch first = BuildOrDie(world.Build());
  ASSERT_TRUE(first.incremental);
  const PointSet* merged = &first.graph->points();

  EpochManager epochs;
  epochs.Publish(first.graph, first.clusters, first.cache, first.ids);
  const std::shared_ptr<const EpochSnapshot> pin = epochs.Current();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(&pin->view().points(), merged);
  EXPECT_EQ(&pin->frozen().points(), merged);

  ASSERT_TRUE(world.Apply(NetworkUpdate::AddPoint(e.u, e.v, e.weight)).ok());
  const World::Epoch second = BuildOrDie(world.Build());
  EXPECT_TRUE(first.graph->SharesAdjacencyWith(*boot.graph));
  EXPECT_TRUE(second.graph->SharesAdjacencyWith(*first.graph));
  EXPECT_NE(&first.graph->points(), &boot.graph->points());
  EXPECT_NE(&second.graph->points(), merged);
  EXPECT_EQ(first.graph->points().size(), s.points.size() + 1);
  EXPECT_EQ(second.graph->points().size(), s.points.size() + 2);
  EXPECT_EQ(&pin->view().points(), merged);
}

// RunClustering over an epoch's graph (no second freeze) returns bit for
// bit what RunClustering over the same view returns, for every
// algorithm: assignment, medoids, cost and dendrogram.
TEST(WorldTest, RunClusteringOverTheEpochGraphMatchesAFreshFreeze) {
  Scenario s(60, 90, 37);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  BuildOrDie(world.Build());
  // A points-only epoch, so its graph is a shared-adjacency snapshot.
  const Edge e = s.gen.net.Edges().back();
  ASSERT_TRUE(
      world.Apply(NetworkUpdate::AddPoint(e.u, e.v, 0.5 * e.weight)).ok());
  const World::Epoch epoch = BuildOrDie(world.Build());
  const InMemoryNetworkView view(s.gen.net, epoch.graph->points());

  KMedoidsOptions kmedoids;
  kmedoids.k = 4;
  kmedoids.seed = 5;
  DbscanOptions dbscan;
  dbscan.eps = s.eps;
  dbscan.min_pts = 3;
  SingleLinkOptions single_link;
  single_link.stop_cluster_count = 3;
  for (const ClusterSpec& spec :
       {MakeSpec(kmedoids), MakeSpec(EpsLinkOptions{s.eps, 2}),
        MakeSpec(dbscan), MakeSpec(single_link)}) {
    SCOPED_TRACE(AlgorithmName(spec.algorithm));
    Result<ClusterOutput> got = RunClustering(view, *epoch.graph, spec);
    Result<ClusterOutput> want = RunClustering(view, spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const ClusterOutput& g = got.value();
    const ClusterOutput& w = want.value();
    EXPECT_EQ(g.clustering.num_clusters, w.clustering.num_clusters);
    EXPECT_EQ(g.clustering.assignment, w.clustering.assignment);
    EXPECT_EQ(g.medoids, w.medoids);
    EXPECT_EQ(std::memcmp(&g.cost, &w.cost, sizeof(double)), 0);
    ASSERT_EQ(g.dendrogram.has_value(), w.dendrogram.has_value());
    if (g.dendrogram.has_value()) {
      const std::vector<Merge>& gm = g.dendrogram->merges();
      const std::vector<Merge>& wm = w.dendrogram->merges();
      ASSERT_EQ(gm.size(), wm.size());
      ASSERT_FALSE(gm.empty());
      for (size_t i = 0; i < gm.size(); ++i) {
        EXPECT_TRUE(gm[i].a == wm[i].a && gm[i].b == wm[i].b &&
                    std::memcmp(&gm[i].distance, &wm[i].distance,
                                sizeof(double)) == 0)
            << "merge " << i;
      }
    }
  }
}

// Checkpoint -> Restore -> Checkpoint is the identity, and the restored
// world builds the epoch the original builds, and keeps doing so under
// the same further mutations.
TEST(WorldTest, CheckpointRestoresTheSameWorld) {
  Scenario s(60, 80, 23);
  WorldOptions options;
  options.cluster_spec = MakeSpec(EpsLinkOptions{s.eps, 2});
  World world = World::Boot(s.gen.net, s.points, options);
  BuildOrDie(world.Build());
  Mutator mutator(s.gen.net, s.eps, 29);
  size_t added_points = 0;
  for (int m = 0; m < 12; ++m) {
    const NetworkUpdate u = mutator.Next(0.6);
    if (u.kind == NetworkUpdate::Kind::kAddPoint) ++added_points;
    ASSERT_TRUE(world.Apply(u).ok());
    if (m % 4 == 3) BuildOrDie(world.Build());
  }
  const CheckpointState state = world.Checkpoint();
  EXPECT_EQ(state.num_nodes, s.gen.net.num_nodes());
  EXPECT_EQ(state.points.size(), s.points.size() + added_points);
  EXPECT_EQ(state.edges.size(), s.gen.net.num_edges() + 12 - added_points);
  EXPECT_EQ(state.next_object_id, state.points.size() + state.edges.size());

  Result<World> restored_or = World::Restore(state, options);
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  World restored = std::move(restored_or).value();
  ExpectSameCheckpoint(restored.Checkpoint(), state);

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const World::Epoch want = BuildOrDie(world.Build());
    const World::Epoch got = BuildOrDie(restored.Build());
    EXPECT_EQ(got.incremental, round > 0);
    EXPECT_TRUE(got.graph->points().BitIdenticalTo(want.graph->points()));
    EXPECT_EQ(SortedRows(*got.graph), SortedRows(*want.graph));
    ExpectSameIdsAndClusters(got, want);
    for (int m = 0; m < 3; ++m) {
      const NetworkUpdate u = mutator.Next(0.6);
      ASSERT_TRUE(world.Apply(u).ok());
      ASSERT_TRUE(restored.Apply(u).ok());
    }
  }
  ExpectSameCheckpoint(restored.Checkpoint(), world.Checkpoint());
}

// Every Build after the first carries its predecessor's identity map
// through the merge. With no oracle on, each carried map must translate
// every ObjectId below the watermark (edge ids, which map to no point,
// included) and every dense point as the map BuildFull builds from the
// records does.
TEST(WorldTest, CarriedIdentityMapMatchesAFreshOne) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario s(60, 80, seed);
    World world = World::Boot(s.gen.net, s.points, WorldOptions{});
    BuildOrDie(world.Build());
    Mutator mutator(s.gen.net, s.eps, seed * 3);
    Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      const uint64_t batch = 1 + rng.NextBounded(4);
      for (uint64_t m = 0; m < batch; ++m) {
        ASSERT_TRUE(world.Apply(mutator.Next(0.7)).ok());
      }
      const World::Epoch epoch = BuildOrDie(world.Build());
      const World::Epoch full = BuildOrDie(world.BuildFull());
      ASSERT_TRUE(epoch.incremental);
      const IdentityMap& got = *epoch.ids;
      const IdentityMap& want = *full.ids;
      ASSERT_EQ(got.num_points(), want.num_points());
      for (PointId p = 0; p < want.num_points(); ++p) {
        ASSERT_EQ(got.ObjectOf(p), want.ObjectOf(p)) << "point " << p;
      }
      const ObjectId watermark = world.Checkpoint().next_object_id;
      for (ObjectId oid = 0; oid <= watermark; ++oid) {
        ASSERT_EQ(got.PointOf(oid), want.PointOf(oid)) << "object " << oid;
      }
      EXPECT_TRUE(got.SameMappingAs(want));
    }
  }
}

// ---------------------------------------------------------------------
// The carriers of one merge's renumbering, each at the edge of its
// range, each held to BuildFull.
// ---------------------------------------------------------------------

// Points on a path 0-1-...-7 of weight-4 edges, two on each of (1, 2),
// (3, 4) and (5, 6): edges without points before, between and after
// the groups.
World PathWorld(WorldOptions options) {
  const Network net = MakePathNetwork(8, 4.0);
  PointSetBuilder builder;
  for (NodeId u : {1u, 3u, 5u}) {
    builder.Add(u, u + 1, 1.0, 0);
    builder.Add(u, u + 1, 3.0, 0);
  }
  return World::Boot(net, std::move(builder).Build(net).value(),
                     std::move(options));
}

// Applies `batch`, builds once, and holds the epoch and its identity
// map to BuildFull's. Returns the epoch.
World::Epoch BuildBatchAgainstFull(World* world,
                                   const std::vector<NetworkUpdate>& batch) {
  for (const NetworkUpdate& u : batch) EXPECT_TRUE(world->Apply(u).ok());
  const World::Epoch full = BuildOrDie(world->BuildFull());
  World::Epoch epoch = BuildOrDie(world->Build());
  EXPECT_TRUE(epoch.incremental);
  ExpectSameEpoch(epoch, full);
  EXPECT_TRUE(epoch.ids->SameMappingAs(*full.ids));
  return epoch;
}

// One batch inserts ahead of every base point, after every base point,
// and two points side by side between two base points: the carried map
// translates every ObjectId as the full build's does.
TEST(WorldCarryTest, IdentityMapWithInsertsAtBothEndsAndSideBySide) {
  World world = PathWorld(WorldOptions{});
  BuildOrDie(world.Build());
  // Boot: points 0..5 are ObjectIds 0..5, the 7 edges 6..12.
  const World::Epoch epoch = BuildBatchAgainstFull(
      &world, {NetworkUpdate::AddPoint(1, 2, 0.5),    // oid 13: first
               NetworkUpdate::AddPoint(6, 5, 3.5),    // oid 14: last
               NetworkUpdate::AddPoint(3, 4, 2.0),    // oids 15, 16:
               NetworkUpdate::AddPoint(3, 4, 2.5)});  // side by side
  EXPECT_EQ(epoch.ids->PointOf(13), 0u);
  EXPECT_EQ(epoch.ids->PointOf(14), 9u);
  EXPECT_EQ(epoch.ids->PointOf(15), 4u);
  EXPECT_EQ(epoch.ids->PointOf(16), 5u);
  EXPECT_EQ(epoch.ids->PointOf(6), kInvalidPointId);  // an edge
}

// One batch opens a group ahead of every base group and one after
// them, and adds a point to a base group: the point handle is remapped
// past both, not shared, and equals a fresh one.
TEST(WorldCarryTest, PointHandleOpensTheFirstAndTheLastGroup) {
  World world = PathWorld(WorldOptions{});
  const World::Epoch boot = BuildOrDie(world.Build());
  const World::Epoch epoch = BuildBatchAgainstFull(
      &world, {NetworkUpdate::AddPoint(0, 1, 2.0),
               NetworkUpdate::AddPoint(7, 6, 2.0),
               NetworkUpdate::AddPoint(3, 4, 2.0)});
  EXPECT_FALSE(epoch.graph->SharesPointHandleWith(*boot.graph));
  ASSERT_EQ(epoch.graph->points().num_groups(), 5u);
  EXPECT_EQ(epoch.graph->EdgePointRange(1, 0), std::make_pair(0u, 1u));
  EXPECT_EQ(epoch.graph->EdgePointRange(6, 7), std::make_pair(8u, 1u));
  EXPECT_EQ(epoch.graph->EdgePointRange(2, 1), std::make_pair(1u, 2u));
}

// Six nodes: a weight-1 edge (0, 5), the smallest edge key, and a path
// 1-2-3-4-5 of weight-10 edges. `a` places points on (1, 2), `b` on
// (4, 5), each at offsets from the smaller endpoint.
World TwoGroupWorld(const std::vector<double>& a, const std::vector<double>& b,
                    uint32_t min_sup) {
  Network net(6);
  EXPECT_TRUE(net.AddEdge(0, 5, 1.0).ok());
  for (NodeId u = 1; u < 5; ++u) EXPECT_TRUE(net.AddEdge(u, u + 1, 10.0).ok());
  PointSetBuilder builder;
  for (double x : a) builder.Add(1, 2, x, 0);
  for (double x : b) builder.Add(4, 5, x, 1);
  WorldOptions options;
  options.cluster_spec = MakeSpec(EpsLinkOptions{1.0, min_sup});
  return World::Boot(net, std::move(builder).Build(net).value(), options);
}

// A new point lands ahead of every base point (on edge (0, 5), 0.1
// from node 5) and within eps of cluster 1's points (0.2 and 0.5 past
// node 5): it joins cluster 1, whose first dense id is now 0, so the
// two clusters swap numbers.
TEST(WorldCarryTest, NewFirstPointReordersTwoClusters) {
  World world = TwoGroupWorld({1.0, 1.5}, {9.5, 9.8}, 1);
  const World::Epoch boot = BuildOrDie(world.Build());
  ASSERT_EQ(boot.clusters->clustering.assignment,
            (std::vector<int>{0, 0, 1, 1}));
  const World::Epoch epoch =
      BuildBatchAgainstFull(&world, {NetworkUpdate::AddPoint(5, 0, 0.9)});
  EXPECT_TRUE(epoch.recluster_incremental);
  EXPECT_EQ(epoch.clusters->clustering.assignment,
            (std::vector<int>{0, 1, 1, 0, 0}));
}

// An AddEdge within eps joins a point near node 2 to one near node 4:
// the two clusters become one.
TEST(WorldCarryTest, AddEdgeMergesTwoClusters) {
  World world = TwoGroupWorld({9.5, 9.8}, {0.2, 0.5}, 1);
  const World::Epoch boot = BuildOrDie(world.Build());
  ASSERT_EQ(boot.clusters->clustering.num_clusters, 2);
  const World::Epoch epoch =
      BuildBatchAgainstFull(&world, {NetworkUpdate::AddEdge(4, 2, 0.3)});
  EXPECT_TRUE(epoch.recluster_incremental);
  EXPECT_EQ(epoch.clusters->clustering.num_clusters, 1);
  EXPECT_EQ(epoch.clusters->clustering.assignment,
            (std::vector<int>{0, 0, 0, 0}));
}

// At min_sup 3 the two points on (4, 5) are noise until a third joins
// them; the next batch grows the other cluster and leaves them be.
TEST(WorldCarryTest, ComponentCrossesMinSupThree) {
  World world = TwoGroupWorld({1.0, 1.3, 1.6}, {9.5, 9.8}, 3);
  const World::Epoch boot = BuildOrDie(world.Build());
  ASSERT_EQ(boot.clusters->clustering.assignment,
            (std::vector<int>{0, 0, 0, kNoise, kNoise}));
  const World::Epoch joined =
      BuildBatchAgainstFull(&world, {NetworkUpdate::AddPoint(4, 5, 9.2)});
  EXPECT_EQ(joined.clusters->clustering.num_clusters, 2);
  EXPECT_EQ(joined.clusters->clustering.assignment,
            (std::vector<int>{0, 0, 0, 1, 1, 1}));
  const World::Epoch grown =
      BuildBatchAgainstFull(&world, {NetworkUpdate::AddPoint(2, 1, 2.2)});
  EXPECT_EQ(grown.clusters->clustering.assignment,
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1}));
}

// The checkpoint lists the boot edges in Edges() order and every edge
// added since in the order Apply admitted it, each with its ObjectId. A
// world restored from it lists them alike, and so does its next
// checkpoint after the same further edges.
TEST(WorldTest, CheckpointListsEdgesInAdmissionOrder) {
  Scenario s(40, 30, 47);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  BuildOrDie(world.Build());
  const std::vector<Edge> boot_edges = s.gen.net.Edges();
  Mutator mutator(s.gen.net, s.eps, 53);
  std::vector<NetworkUpdate> added;
  std::vector<ObjectId> added_ids;
  ObjectId next = world.Checkpoint().next_object_id;
  for (int m = 0; m < 10; ++m) {
    const NetworkUpdate u = mutator.Next(0.5);
    ASSERT_TRUE(world.Apply(u).ok());
    if (u.kind == NetworkUpdate::Kind::kAddEdge) {
      added.push_back(u);
      added_ids.push_back(next);
    }
    ++next;
    if (m % 3 == 2) BuildOrDie(world.Build());
  }
  ASSERT_GE(added.size(), 2u);

  const CheckpointState state = world.Checkpoint();
  ASSERT_EQ(state.edges.size(), boot_edges.size() + added.size());
  for (size_t i = 0; i < boot_edges.size(); ++i) {
    EXPECT_TRUE(state.edges[i].u == boot_edges[i].u &&
                state.edges[i].v == boot_edges[i].v &&
                state.edges[i].oid == s.points.size() + i)
        << "boot edge " << i;
  }
  for (size_t j = 0; j < added.size(); ++j) {
    const CheckpointEdge& e = state.edges[boot_edges.size() + j];
    EXPECT_EQ(EdgeKeyOf(e.u, e.v), EdgeKeyOf(added[j].u, added[j].v))
        << "added edge " << j;
    EXPECT_EQ(std::memcmp(&e.weight, &added[j].value, sizeof(double)), 0);
    EXPECT_EQ(e.oid, added_ids[j]);
  }

  Result<World> restored_or = World::Restore(state, WorldOptions{});
  ASSERT_TRUE(restored_or.ok()) << restored_or.status().ToString();
  World restored = std::move(restored_or).value();
  ExpectSameCheckpoint(restored.Checkpoint(), state);
  for (int m = 0; m < 3; ++m) {
    const NetworkUpdate u = mutator.Next(0.0);
    ASSERT_TRUE(world.Apply(u).ok());
    ASSERT_TRUE(restored.Apply(u).ok());
  }
  ExpectSameCheckpoint(restored.Checkpoint(), world.Checkpoint());
  EXPECT_EQ(world.Checkpoint().edges.size(), state.edges.size() + 3);
}

// A rejected mutation allocates no ObjectId and changes nothing: the
// next admitted object takes the id the rejected one would have.
TEST(WorldTest, RejectedMutationAllocatesNoObjectId) {
  Scenario s(30, 20, 31);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  const CheckpointState before = world.Checkpoint();
  EXPECT_EQ(before.next_object_id,
            s.points.size() + s.gen.net.num_edges());
  const Edge e = s.gen.net.Edges().front();
  NodeId far = 0;
  while (far == e.u || s.gen.net.HasEdge(e.u, far)) ++far;
  for (const NetworkUpdate& bad :
       {NetworkUpdate::AddEdge(e.u, e.v, 1.0),         // duplicate
        NetworkUpdate::AddEdge(e.u, e.u, 1.0),         // self loop
        NetworkUpdate::AddEdge(e.u, far, -1.0),        // bad weight
        NetworkUpdate::AddEdge(e.u, 1000000, 1.0),     // no such node
        NetworkUpdate::AddPoint(e.u, far, 0.0),        // no such edge
        NetworkUpdate::AddPoint(e.u, e.v, e.weight * 2),  // off the edge
        NetworkUpdate::AddPoint(e.u, e.v, -0.5)}) {
    EXPECT_TRUE(world.Apply(bad).IsInvalidArgument());
  }
  ExpectSameCheckpoint(world.Checkpoint(), before);

  ASSERT_TRUE(world.Apply(NetworkUpdate::AddPoint(e.u, e.v, 0.0)).ok());
  const CheckpointState after = world.Checkpoint();
  ASSERT_EQ(after.points.size(), before.points.size() + 1);
  EXPECT_EQ(after.points.back().oid, before.next_object_id);
  EXPECT_EQ(after.next_object_id, before.next_object_id + 1);
  // The rejected mutations never reach a build either: the first build
  // holds the boot points plus the one admitted.
  EXPECT_EQ(BuildOrDie(world.Build()).graph->points().size(),
            s.points.size() + 1);
}

// The weight domain holds at Apply and at Restore: both reach
// Network::AddEdge, which rejects a weight of 2^28 or more.
TEST(WorldTest, WeightOutsideTheDomainIsRejectedAtApplyAndRestore) {
  Scenario s(30, 20, 37);
  World world = World::Boot(s.gen.net, s.points, WorldOptions{});
  const CheckpointState before = world.Checkpoint();
  NodeId far = 1;
  while (s.gen.net.HasEdge(0, far)) ++far;
  for (double w : {kMaxEdgeWeight, 2 * kMaxEdgeWeight, 1e300}) {
    EXPECT_TRUE(world.Apply(NetworkUpdate::AddEdge(0, far, w))
                    .IsInvalidArgument())
        << w;
  }
  ExpectSameCheckpoint(world.Checkpoint(), before);
  const double top = std::nextafter(kMaxEdgeWeight, 0.0);
  ASSERT_TRUE(world.Apply(NetworkUpdate::AddEdge(0, far, top)).ok());

  CheckpointState bad = world.Checkpoint();
  for (CheckpointEdge& e : bad.edges) {
    if (e.weight == top) e.weight = kMaxEdgeWeight;
  }
  Result<World> restored = World::Restore(bad, WorldOptions{});
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument())
      << restored.status().ToString();
  EXPECT_TRUE(World::Restore(world.Checkpoint(), WorldOptions{}).ok());
}

// Tables are built on request only, for the base epoch; every later
// epoch carries them: points-only builds share them with the adjacency,
// an AddEdge that shortens no label shares them across the rebuilt
// adjacency, and one that does gets a repaired copy equal to fresh
// searches from the same landmarks (the validate oracle checks that
// too, on every carry). BuildFull carries none.
TEST(WorldLandmarkTest, AddEdgeRepairsTablesOnlyWhenALabelImproves) {
  Scenario s(300, 200, 43);
  WorldOptions options;
  options.validate = true;
  options.cluster_spec = MakeSpec(EpsLinkOptions{s.eps, 2});
  World world = World::Boot(s.gen.net, s.points, options);
  EXPECT_EQ(world.BuildLandmarks(), nullptr);  // no base yet
  const World::Epoch boot = BuildOrDie(world.Build());
  EXPECT_EQ(boot.graph->landmarks(), nullptr);  // Build builds none
  const TraversalCounters before = LocalTraversalCounters();
  std::shared_ptr<const FrozenGraph> base = world.BuildLandmarks();
  EXPECT_EQ((LocalTraversalCounters() - before).settled_nodes, 0u);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(base->landmarks(), nullptr);
  EXPECT_TRUE(base->SharesAdjacencyWith(*boot.graph));
  EXPECT_EQ(&base->points(), &boot.graph->points());
  EXPECT_EQ(world.BuildLandmarks(), nullptr);  // built once
  const LandmarkTables* tables = base->landmarks();

  // Points only: the adjacency and its tables are shared.
  const Edge e0 = s.gen.net.Edges().front();
  ASSERT_TRUE(
      world.Apply(NetworkUpdate::AddPoint(e0.u, e0.v, 0.5 * e0.weight)).ok());
  const World::Epoch points_only = BuildOrDie(world.Build());
  EXPECT_EQ(points_only.graph->landmarks(), tables);
  EXPECT_EQ(points_only.landmarks_ms, 0.0);
  EXPECT_FALSE(points_only.landmarks_repaired);

  // An edge at least as long as the path it parallels: no label
  // improves, so the rebuilt adjacency shares the tables.
  InMemoryNetworkView view(s.gen.net, s.points);
  FrozenGraph frozen = std::move(view.Freeze()).value();
  TraversalWorkspace ws(frozen.num_nodes());
  const NodeId u = tables->landmarks()[0];
  NodeId far = 0;
  for (NodeId v = 0; v < frozen.num_nodes(); ++v) {
    if (tables->row(v)[0] > tables->row(far)[0]) far = v;
  }
  ASSERT_FALSE(s.gen.net.HasEdge(u, far));
  DijkstraDistances(frozen, {DijkstraSource{u, 0.0}}, &ws);
  ASSERT_TRUE(world
                  .Apply(NetworkUpdate::AddEdge(u, far,
                                                ws.scratch.Get(far) + 1.0))
                  .ok());
  const World::Epoch long_edge = BuildOrDie(world.Build());
  EXPECT_FALSE(long_edge.graph->SharesAdjacencyWith(*points_only.graph));
  EXPECT_EQ(long_edge.graph->landmarks(), tables);
  EXPECT_FALSE(long_edge.landmarks_repaired);

  // A short edge from the first landmark's neighbour to the node
  // farthest from it improves labels: the tables are repaired.
  const NodeId near = s.gen.net.neighbors(u).front().first;
  ASSERT_TRUE(world.Apply(NetworkUpdate::AddEdge(near, far, 0.125)).ok());
  const World::Epoch short_edge = BuildOrDie(world.Build());
  const LandmarkTables* repaired = short_edge.graph->landmarks();
  ASSERT_NE(repaired, nullptr);
  EXPECT_NE(repaired, tables);
  EXPECT_TRUE(*repaired ==
              *LandmarkTables::FromLandmarks(*short_edge.graph,
                                             tables->landmarks()));
  EXPECT_TRUE(repaired->row(far)[0] < tables->row(far)[0]);
  EXPECT_GT(short_edge.landmarks_ms, 0.0);
  EXPECT_TRUE(short_edge.landmarks_repaired);

  // The repaired tables keep riding on points-only builds.
  const Edge e1 = s.gen.net.Edges().back();
  ASSERT_TRUE(
      world.Apply(NetworkUpdate::AddPoint(e1.u, e1.v, 0.25 * e1.weight)).ok());
  EXPECT_EQ(BuildOrDie(world.Build()).graph->landmarks(), repaired);
  EXPECT_EQ(BuildOrDie(world.BuildFull()).graph->landmarks(), nullptr);
}

}  // namespace
}  // namespace netclus
