// Tests for the distance index (src/index/): ALT landmark bound
// sandwiching on randomized and adversarial networks, result-equivalence
// of the indexed clustering paths, and the validator's rejection of
// seeded bad bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/validate.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/frozen_graph.h"
#include "graph/network_distance.h"
#include "index/distance_index.h"
#include "index/landmark_oracle.h"
#include "netclus.h"

namespace netclus {
namespace {

double Tol(double scale) { return 1e-9 * std::max(1.0, std::abs(scale)); }

// A generated network + uniform points + index, the common setup.
struct Scenario {
  GeneratedNetwork gen;
  PointSet points;
  std::optional<InMemoryNetworkView> view;
  std::unique_ptr<DistanceIndex> index;

  Scenario(NodeId nodes, PointId n_points, uint64_t seed,
           const IndexOptions& io = DefaultOptions()) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
    view.emplace(gen.net, points);
    index = std::move(DistanceIndex::Build(*view, io, nullptr).value());
  }

  static IndexOptions DefaultOptions() {
    IndexOptions io;
    io.enable = true;
    io.num_landmarks = 4;
    return io;
  }
};

// Exhaustive (or strided) sandwich check of the ALT bounds against the
// exact point-to-point Dijkstra.
void CheckSandwich(const NetworkView& view, const LandmarkOracle& oracle) {
  TraversalWorkspace ws(view.num_nodes());
  PointId n = view.num_points();
  PointId stride = n > 64 ? n / 64 : 1;
  for (PointId p = 0; p < n; p += stride) {
    for (PointId q = 0; q < n; q += stride) {
      double exact = PointNetworkDistance(view, view, p, q, &ws);
      double lb = oracle.LowerBound(p, q);
      double ub = oracle.UpperBound(p, q);
      if (exact == kInfDist) {
        EXPECT_EQ(ub, kInfDist) << "pair (" << p << ", " << q << ")";
      } else {
        EXPECT_LE(lb, exact + Tol(exact)) << "pair (" << p << ", " << q << ")";
        EXPECT_GE(ub, exact - Tol(exact)) << "pair (" << p << ", " << q << ")";
      }
    }
  }
}

TEST(LandmarkOracleTest, BoundsSandwichExactDistancesOnRandomGraphs) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Scenario s(120, 150, seed);
    ASSERT_GT(s.index->landmarks().num_landmarks(), 0u);
    CheckSandwich(*s.view, s.index->landmarks());
  }
}

// Two generated road networks glued into one node space: a network
// with two connected components of `nodes_a` and `nodes_b` nodes.
Network TwoComponents(NodeId nodes_a, NodeId nodes_b, uint64_t seed) {
  GeneratedNetwork a = GenerateRoadNetwork({nodes_a, 1.3, 0.3, seed});
  GeneratedNetwork b = GenerateRoadNetwork({nodes_b, 1.3, 0.3, seed + 1});
  NodeId na = a.net.num_nodes();
  Network net(na + b.net.num_nodes());
  for (const Edge& e : a.net.Edges()) {
    EXPECT_TRUE(net.AddEdge(e.u, e.v, e.weight).ok());
  }
  for (const Edge& e : b.net.Edges()) {
    EXPECT_TRUE(net.AddEdge(na + e.u, na + e.v, e.weight).ok());
  }
  return net;
}

TEST(LandmarkOracleTest, BoundsSandwichOnDisconnectedNetworkWithZeroOffsets) {
  // Two generated components glued into one node space, with handcrafted
  // points including zero-offset placements (points sitting exactly on a
  // node). Cross-component pairs must come back as proven-disconnected.
  Network net = TwoComponents(40, 40, 21);
  ASSERT_FALSE(net.IsConnected());

  PointSetBuilder builder;
  uint32_t added = 0;
  for (const Edge& e : net.Edges()) {
    // Zero-offset point on every 3rd edge, interior point on the rest.
    if (added % 3 == 0) {
      builder.Add(e.u, e.v, 0.0, -1);
    } else {
      builder.Add(e.u, e.v, 0.5 * e.weight, -1);
    }
    if (++added == 60) break;
  }
  PointSet points = std::move(std::move(builder).Build(net).value());
  InMemoryNetworkView view(net, points);

  IndexOptions io = Scenario::DefaultOptions();
  std::unique_ptr<DistanceIndex> index =
      std::move(DistanceIndex::Build(view, io, nullptr).value());
  CheckSandwich(view, index->landmarks());

  // FPS places landmarks in both components, so every cross-component
  // pair gets an infinite lower bound (a disconnection proof).
  const NetworkView& live = view;
  TraversalWorkspace ws(view.num_nodes());
  bool saw_disconnected = false;
  for (PointId p = 0; p < points.size() && !saw_disconnected; ++p) {
    for (PointId q = p + 1; q < points.size(); ++q) {
      if (PointNetworkDistance(live, live, p, q, &ws) == kInfDist) {
        EXPECT_EQ(index->landmarks().LowerBound(p, q), kInfDist);
        saw_disconnected = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_disconnected);
}

TEST(LandmarkOracleTest, TablesBitIdenticalWithAndWithoutFrozenGraph) {
  Network net = TwoComponents(60, 25, 31);
  PointSet points = std::move(GenerateUniformPoints(net, 120, 33)).value();
  InMemoryNetworkView view(net, points);
  FrozenGraph frozen = std::move(view.Freeze()).value();
  ThreadPool pool(3);
  const NetworkView& live = view;
  LandmarkOracle plain =
      std::move(LandmarkOracle::Build(live, live, 5, nullptr)).value();
  LandmarkOracle snap =
      std::move(LandmarkOracle::Build(live, frozen, 5, &pool)).value();
  ASSERT_EQ(plain.landmarks(), snap.landmarks());
  for (uint32_t l = 0; l < plain.num_landmarks(); ++l) {
    for (PointId p = 0; p < points.size(); ++p) {
      double a = plain.LandmarkPointDistance(l, p);
      double b = snap.LandmarkPointDistance(l, p);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "landmark " << l << ", point " << p;
    }
  }
}

TEST(DistanceIndexTest, NearestTargetLowerBoundsMatchPerPairMinima) {
  // On a disconnected network (infinite bounds, landmarks that see only
  // one side), the batch bounds must equal the per-pair LowerBound
  // minima, with and without caps.
  Network net = TwoComponents(60, 25, 41);
  PointSet points = std::move(GenerateUniformPoints(net, 150, 43)).value();
  InMemoryNetworkView view(net, points);
  std::unique_ptr<DistanceIndex> index = std::move(
      DistanceIndex::Build(view, Scenario::DefaultOptions(), nullptr).value());
  const LandmarkOracle& oracle = index->landmarks();
  std::vector<PointId> all(points.size());
  for (PointId p = 0; p < points.size(); ++p) all[p] = p;
  Rng rng(45);
  for (size_t num_targets : {size_t{0}, size_t{1}, size_t{4}}) {
    std::vector<PointId> targets;
    for (size_t t = 0; t < num_targets; ++t) {
      targets.push_back(static_cast<PointId>(rng.NextBounded(points.size())));
    }
    for (bool capped : {false, true}) {
      std::vector<double> caps(all.size(), kInfDist);
      if (capped) {
        for (double& c : caps) c = 10.0 * rng.NextDouble();
      }
      std::vector<double> fast = caps;
      std::vector<double> slow = caps;
      oracle.NearestTargetLowerBounds(all, targets, fast.data());
      for (size_t j = 0; j < all.size(); ++j) {
        for (PointId t : targets) {
          slow[j] = std::min(slow[j], oracle.LowerBound(all[j], t));
        }
      }
      EXPECT_EQ(fast, slow) << num_targets << " targets, capped " << capped;
    }
  }
}

TEST(DistanceIndexTest, ValidatorAcceptsHealthyIndex) {
  Scenario s(80, 90, 71);
  EXPECT_TRUE(ValidateLandmarkOracle(*s.view, s.index->landmarks()).ok());
}

TEST(DistanceIndexTest, ValidatorRejectsSeededBadBound) {
  Scenario s(80, 90, 81);
  ASSERT_TRUE(ValidateLandmarkOracle(*s.view, s.index->landmarks()).ok());
  // Corrupt landmark 0's distance to every point: all lower bounds
  // involving a sampled pair explode past the exact distance.
  LandmarkOracle* oracle = s.index->mutable_landmarks_for_testing();
  ASSERT_GT(oracle->num_landmarks(), 0u);
  for (PointId p = 0; p < s.points.size(); ++p) {
    oracle->CorruptEntryForTesting(0, p, p % 2 == 0 ? 1e9 : 0.0);
  }
  Status st = ValidateLandmarkOracle(*s.view, *oracle);
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

// The headline equivalence: with validation on, every algorithm produces
// the identical clustering with the index enabled and disabled.
class IndexedRunFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = GenerateRoadNetwork({90, 1.3, 0.3, 101});
    points_ = std::move(GenerateUniformPoints(gen_.net, 140, 102)).value();
    view_.emplace(gen_.net, points_);
  }

  void ExpectIndexedMatchesUnindexed(ClusterSpec spec) {
    spec.validate = true;
    spec.index.enable = false;
    Result<ClusterOutput> off = RunClustering(*view_, spec);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    spec.index.enable = true;
    spec.index.num_landmarks = 4;
    Result<ClusterOutput> on = RunClustering(*view_, spec);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    EXPECT_EQ(on.value().clustering.assignment,
              off.value().clustering.assignment);
    EXPECT_EQ(on.value().clustering.num_clusters,
              off.value().clustering.num_clusters);
    EXPECT_EQ(on.value().medoids, off.value().medoids);
    EXPECT_EQ(on.value().cost, off.value().cost);
    // Only k-medoids reads the index, so only k-medoids builds one.
    EXPECT_EQ(on.value().index_stats.num_landmarks,
              spec.algorithm == Algorithm::kKMedoids ? 4u : 0u);
    EXPECT_EQ(off.value().index_stats.num_landmarks, 0u);
  }

  GeneratedNetwork gen_;
  PointSet points_;
  std::optional<InMemoryNetworkView> view_;
};

TEST_F(IndexedRunFixture, KMedoidsIdenticalWithIndexOnAndOff) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kKMedoids;
  spec.kmedoids.k = 5;
  spec.kmedoids.seed = 103;
  ExpectIndexedMatchesUnindexed(spec);
}

TEST_F(IndexedRunFixture, DbscanIdenticalWithIndexOnAndOff) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kDbscan;
  spec.dbscan.eps = 3.0;
  spec.dbscan.min_pts = 3;
  ExpectIndexedMatchesUnindexed(spec);
}

TEST_F(IndexedRunFixture, EpsLinkIdenticalWithIndexOnAndOff) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link.eps = 3.0;
  spec.eps_link.min_sup = 3;
  ExpectIndexedMatchesUnindexed(spec);
}

TEST_F(IndexedRunFixture, SingleLinkIdenticalWithIndexOnAndOff) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kSingleLink;
  spec.single_link.delta = 1.0;
  spec.cut_distance = 3.0;
  ExpectIndexedMatchesUnindexed(spec);
}

// The k-medoids swap bound (current costs for other slots' points, the
// full new medoid set only for the replaced slot's points) must leave the
// whole search untouched: same medoids, cost, assignment and swap counts
// with the index on and off, validated.
struct KMedoidsOnOff {
  uint32_t pruned = 0;
  bool noise = false;
};

KMedoidsOnOff ExpectKMedoidsIndexInvariant(const NetworkView& view,
                                           KMedoidsOptions options) {
  ClusterSpec spec = MakeSpec(options);
  spec.validate = true;
  Result<ClusterOutput> off = RunClustering(view, spec);
  spec.index.enable = true;
  spec.index.num_landmarks = 4;
  Result<ClusterOutput> on = RunClustering(view, spec);
  if (!off.ok() || !on.ok()) {
    ADD_FAILURE() << off.status().ToString() << " / "
                  << on.status().ToString();
    return {};
  }
  const ClusterOutput& a = off.value();
  const ClusterOutput& b = on.value();
  EXPECT_EQ(b.medoids, a.medoids);
  EXPECT_EQ(b.cost, a.cost);
  EXPECT_EQ(b.clustering.assignment, a.clustering.assignment);
  EXPECT_EQ(b.kmedoids_stats.attempted_swaps, a.kmedoids_stats.attempted_swaps);
  EXPECT_EQ(b.kmedoids_stats.committed_swaps, a.kmedoids_stats.committed_swaps);
  EXPECT_EQ(a.kmedoids_stats.pruned_swaps, 0u);
  EXPECT_EQ(a.kmedoids_stats.bound_seconds, 0.0);
  KMedoidsOnOff r;
  r.pruned = b.kmedoids_stats.pruned_swaps;
  for (int c : b.clustering.assignment) r.noise = r.noise || c == kNoise;
  return r;
}

class KMedoidsSwapBoundTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = GenerateRoadNetwork({90, 1.3, 0.3, 201});
    points_ = std::move(GenerateUniformPoints(gen_.net, 160, 202)).value();
    view_.emplace(gen_.net, points_);
  }

  GeneratedNetwork gen_;
  PointSet points_;
  std::optional<InMemoryNetworkView> view_;
};

TEST_F(KMedoidsSwapBoundTest, ConnectedNetwork) {
  ASSERT_TRUE(gen_.net.IsConnected());
  uint32_t pruned = 0;
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    KMedoidsOptions ko;
    ko.k = 5;
    ko.seed = seed;
    pruned += ExpectKMedoidsIndexInvariant(*view_, ko).pruned;
  }
  EXPECT_GT(pruned, 0u);  // the prune path is exercised
}

TEST_F(KMedoidsSwapBoundTest, FromScratchUpdates) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    KMedoidsOptions ko;
    ko.k = 4;
    ko.seed = seed;
    ko.incremental_updates = false;
    ExpectKMedoidsIndexInvariant(*view_, ko);
  }
}

TEST_F(KMedoidsSwapBoundTest, ParallelRestarts) {
  for (uint64_t seed : {8u, 9u}) {
    KMedoidsOptions ko;
    ko.k = 6;
    ko.seed = seed;
    ko.num_restarts = 4;
    ko.num_threads = 3;
    ExpectKMedoidsIndexInvariant(*view_, ko);
  }
}

TEST_F(KMedoidsSwapBoundTest, FixedInitialMedoidsSharingAnEdge) {
  // Two initial medoids on one edge (the same-edge assignment path) plus
  // one elsewhere.
  std::vector<PointId> shared;
  view_->ForEachPointGroup(
      [&](NodeId, NodeId, PointId first, uint32_t count) {
        if (shared.empty() && count >= 2) shared = {first, first + 1};
      });
  ASSERT_EQ(shared.size(), 2u);
  for (uint64_t seed : {10u, 11u, 12u}) {
    KMedoidsOptions ko;
    ko.initial_medoids = {shared[0], shared[1],
                          (shared[0] + points_.size() / 2) % points_.size()};
    ko.seed = seed;
    ExpectKMedoidsIndexInvariant(*view_, ko);
  }
}

TEST(KMedoidsSwapBoundDisconnectedTest, NoisePointsAndUnreachableCandidates) {
  // A small second component: its points are noise while every medoid
  // sits in the large one (they cost nothing, so the search tends to
  // leave them there), and candidates drawn from it reach no other
  // medoid.
  Network net = TwoComponents(70, 12, 51);
  ASSERT_FALSE(net.IsConnected());
  PointSet points = std::move(GenerateUniformPoints(net, 150, 53)).value();
  InMemoryNetworkView view(net, points);
  bool noise = false;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    KMedoidsOptions ko;
    ko.k = 3;
    ko.seed = seed;
    noise = ExpectKMedoidsIndexInvariant(view, ko).noise || noise;
  }
  EXPECT_TRUE(noise);
}

}  // namespace
}  // namespace netclus
