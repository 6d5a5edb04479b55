// Tests for network k-medoids: Equation (1) assignment vs. brute force,
// incremental vs. from-scratch equivalence, convergence behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/kmedoids.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "run_helpers.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

TEST(KMedoidsTest, RejectsBadK) {
  GeneratedNetwork g = GenerateRoadNetwork({30, 1.3, 0.3, 1});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 10, 2)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.k = 0;
  EXPECT_TRUE(RunKMedoids(view, opts).status().IsInvalidArgument());
  opts.k = 11;  // > N
  EXPECT_TRUE(RunKMedoids(view, opts).status().IsInvalidArgument());
}

TEST(KMedoidsTest, SingleMedoidAssignsEverything) {
  GeneratedNetwork g = GenerateRoadNetwork({40, 1.3, 0.3, 3});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 25, 4)).value();
  InMemoryNetworkView view(g.net, ps);
  Result<KMedoidsResult> r = AssignToMedoids<NetworkView>(view, view, {0});
  ASSERT_TRUE(r.ok());
  for (int a : r.value().clustering.assignment) EXPECT_EQ(a, 0);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  double want = 0.0;
  for (PointId p = 0; p < 25; ++p) want += pd[p][0];
  EXPECT_NEAR(r.value().cost, want, 1e-9);
}

// The concurrent expansion + Equation (1) must reproduce exact nearest-
// medoid assignment on randomized instances.
class KMedoidsAssignPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(KMedoidsAssignPropertyTest, MatchesBruteForceAssignment) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({70, 1.35, 0.3, seed});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 60, seed + 9)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  Rng rng(seed);
  for (int trial = 0; trial < 5; ++trial) {
    uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    std::vector<uint64_t> sample = rng.SampleWithoutReplacement(60, k);
    std::vector<PointId> medoids(sample.begin(), sample.end());
    Result<KMedoidsResult> r =
        AssignToMedoids<NetworkView>(view, view, medoids);
    ASSERT_TRUE(r.ok());
    std::vector<int> brute_assign;
    double brute_cost = BruteMedoidAssign(pd, medoids, &brute_assign);
    ASSERT_NEAR(r.value().cost, brute_cost, 1e-6)
        << "seed " << seed << " trial " << trial;
    // Assignments may differ only where distances tie; verify each
    // point's assigned medoid achieves the minimal distance.
    for (PointId p = 0; p < 60; ++p) {
      int got = r.value().clustering.assignment[p];
      ASSERT_GE(got, 0);
      ASSERT_NEAR(pd[p][medoids[got]], pd[p][medoids[brute_assign[p]]], 1e-9)
          << "point " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMedoidsAssignPropertyTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// Incremental Inc_Medoid_Update must be exactly equivalent to rerunning
// Medoid_Dist_Find from scratch: same costs, same clusterings.
class KMedoidsIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KMedoidsIncrementalTest, IncrementalEqualsScratch) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({120, 1.3, 0.3, seed});
  PointSet ps =
      std::move(GenerateUniformPoints(g.net, 200, seed + 50)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.k = 5;
  opts.seed = seed;
  opts.max_unsuccessful_swaps = 10;
  opts.incremental_updates = true;
  Result<KMedoidsResult> inc = RunKMedoids(view, opts);
  ASSERT_TRUE(inc.ok());
  opts.incremental_updates = false;
  Result<KMedoidsResult> scratch = RunKMedoids(view, opts);
  ASSERT_TRUE(scratch.ok());
  // Identical RNG seeds + identical accept/reject decisions => identical
  // trajectories and results.
  EXPECT_NEAR(inc.value().cost, scratch.value().cost, 1e-9);
  EXPECT_EQ(inc.value().medoids, scratch.value().medoids);
  EXPECT_EQ(inc.value().clustering.assignment,
            scratch.value().clustering.assignment);
  EXPECT_EQ(inc.value().stats.committed_swaps,
            scratch.value().stats.committed_swaps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMedoidsIncrementalTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

TEST(KMedoidsTest, IncrementalUpdateReseedsSurvivingMedoidEndpoints) {
  // When the replaced medoid owned an endpoint of a surviving medoid's
  // edge, the orphaned endpoint is reached along that edge and through
  // no assigned neighbor. Without re-seeding it, Inc_Medoid_Update left
  // non-nearest tags behind on this network (seeds 1, 23 and 24);
  // validation re-proves every assignment exact, and the incremental
  // search must match the from-scratch one.
  GeneratedNetwork g = GenerateRoadNetwork({90, 1.3, 0.3, 201});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 160, 202)).value();
  InMemoryNetworkView view(g.net, ps);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    KMedoidsOptions opts;
    opts.k = 5;
    opts.seed = seed;
    ClusterSpec spec = MakeSpec(opts);
    spec.validate = true;
    Result<ClusterOutput> inc = RunClustering(view, spec);
    ASSERT_TRUE(inc.ok()) << "seed " << seed << ": "
                          << inc.status().ToString();
    spec.kmedoids.incremental_updates = false;
    Result<ClusterOutput> scratch = RunClustering(view, spec);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    EXPECT_EQ(inc.value().medoids, scratch.value().medoids) << "seed " << seed;
    EXPECT_EQ(inc.value().clustering.assignment,
              scratch.value().clustering.assignment)
        << "seed " << seed;
  }
}

TEST(KMedoidsTest, SwapsNeverIncreaseCost) {
  GeneratedNetwork g = GenerateRoadNetwork({100, 1.3, 0.3, 31});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 150, 32)).value();
  InMemoryNetworkView view(g.net, ps);
  // Initial cost from the same seed's initial medoids must be >= final.
  Rng rng(33);
  std::vector<uint64_t> sample = rng.SampleWithoutReplacement(150, 4);
  std::vector<PointId> initial(sample.begin(), sample.end());
  Result<KMedoidsResult> start =
      AssignToMedoids<NetworkView>(view, view, initial);
  KMedoidsOptions opts;
  opts.seed = 33;
  opts.initial_medoids = initial;
  Result<KMedoidsResult> done = RunKMedoids(view, opts);
  ASSERT_TRUE(start.ok());
  ASSERT_TRUE(done.ok());
  EXPECT_LE(done.value().cost, start.value().cost + 1e-9);
}

TEST(KMedoidsTest, FinalCostIsSelfConsistent) {
  GeneratedNetwork g = GenerateRoadNetwork({80, 1.3, 0.3, 41});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 100, 42)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.k = 3;
  opts.seed = 43;
  Result<KMedoidsResult> r = RunKMedoids(view, opts);
  ASSERT_TRUE(r.ok());
  Result<KMedoidsResult> re =
      AssignToMedoids<NetworkView>(view, view, r.value().medoids);
  ASSERT_TRUE(re.ok());
  EXPECT_NEAR(r.value().cost, re.value().cost, 1e-9);
}

TEST(KMedoidsTest, IdealSeedingRecoversPlantedClustersBetterThanRandom) {
  GeneratedNetwork g = GenerateRoadNetwork({600, 1.3, 0.3, 51});
  ClusterWorkloadSpec spec;
  spec.total_points = 1200;
  spec.num_clusters = 6;
  spec.outlier_fraction = 0.0;
  spec.s_init = 0.02;
  spec.seed = 52;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  KMedoidsOptions opts;
  opts.seed = 53;
  opts.max_unsuccessful_swaps = 5;
  opts.initial_medoids = w.cluster_seeds;
  Result<KMedoidsResult> ideal = RunKMedoids(view, opts);
  ASSERT_TRUE(ideal.ok());
  double ari =
      AdjustedRandIndex(w.points.labels(), ideal.value().clustering.assignment);
  // Seeded from the true cluster cores the partitioning should be decent
  // (the paper's Fig. 11b: good but not perfect).
  EXPECT_GT(ari, 0.5);
}

TEST(KMedoidsTest, RestartsKeepBestCost) {
  GeneratedNetwork g = GenerateRoadNetwork({80, 1.3, 0.3, 61});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 120, 62)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions one;
  one.k = 4;
  one.seed = 63;
  one.num_restarts = 1;
  KMedoidsOptions many = one;
  many.num_restarts = 4;
  Result<KMedoidsResult> r1 = RunKMedoids(view, one);
  Result<KMedoidsResult> r4 = RunKMedoids(view, many);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  // More restarts can only improve: restart r runs on the derived stream
  // Rng::DeriveSeed(seed, r), and stream 0 is `seed` itself, so the
  // multi-restart run contains the single-restart run as its restart 0.
  EXPECT_LE(r4.value().cost, r1.value().cost + 1e-9);
}

// The determinism-under-parallelism contract: the same multi-restart run
// must be bit-identical at any thread count, because each restart derives
// its RNG from the restart index and the reduction is order-free.
class KMedoidsParallelRestartTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(KMedoidsParallelRestartTest, ParallelRestartsMatchSerialBitExactly) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({90, 1.3, 0.3, seed});
  PointSet ps =
      std::move(GenerateUniformPoints(g.net, 130, seed + 7)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions serial;
  serial.k = 4;
  serial.seed = seed + 13;
  serial.num_restarts = 8;
  serial.num_threads = 1;
  KMedoidsOptions parallel = serial;
  parallel.num_threads = 4;
  Result<KMedoidsResult> s = RunKMedoids(view, serial);
  Result<KMedoidsResult> p = RunKMedoids(view, parallel);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  // Bit-identical, not merely close: same winning restart, same medoids,
  // same assignment, exactly equal cost.
  EXPECT_EQ(s.value().cost, p.value().cost);
  EXPECT_EQ(s.value().medoids, p.value().medoids);
  EXPECT_EQ(s.value().clustering.assignment, p.value().clustering.assignment);
  EXPECT_EQ(s.value().stats.committed_swaps, p.value().stats.committed_swaps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMedoidsParallelRestartTest,
                         ::testing::Values(101u, 102u, 103u));

TEST(KMedoidsTest, RejectsBadInitialMedoids) {
  GeneratedNetwork g = GenerateRoadNetwork({30, 1.3, 0.3, 121});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 10, 122)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.initial_medoids = {0, 99};  // out of range
  EXPECT_TRUE(RunKMedoids(view, opts).status().IsInvalidArgument());
}

TEST(KMedoidsTest, RejectsDuplicateInitialMedoids) {
  // Two slots on one point would be a k-1 medoid search reported as k
  // clusters; refused up front, with or without validation.
  GeneratedNetwork g = GenerateRoadNetwork({30, 1.3, 0.3, 123});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 10, 124)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.initial_medoids = {3, 3, 7};
  opts.max_swaps = 0;
  ClusterSpec spec = MakeSpec(opts);
  EXPECT_TRUE(RunClustering(view, spec).status().IsInvalidArgument());
  spec.validate = true;
  EXPECT_TRUE(RunClustering(view, spec).status().IsInvalidArgument());
}

TEST(KMedoidsTest, KEqualsNTerminates) {
  // Every point is a medoid: no swap candidate exists; the run must
  // terminate with zero cost (each point is its own medoid).
  GeneratedNetwork g = GenerateRoadNetwork({30, 1.3, 0.3, 81});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 12, 82)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.k = 12;
  opts.seed = 83;
  Result<KMedoidsResult> r = RunKMedoids(view, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.attempted_swaps, 0u);
  EXPECT_NEAR(r.value().cost, 0.0, 1e-12);
}

TEST(KMedoidsTest, StatsArePopulated) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 71});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, 72)).value();
  InMemoryNetworkView view(g.net, ps);
  KMedoidsOptions opts;
  opts.k = 3;
  opts.seed = 73;
  Result<KMedoidsResult> r = RunKMedoids(view, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().stats.attempted_swaps, opts.max_unsuccessful_swaps);
  EXPECT_GT(r.value().stats.total_seconds, 0.0);
  EXPECT_GE(r.value().stats.first_iteration_seconds, 0.0);
  EXPECT_EQ(r.value().clustering.num_clusters, 3);
  std::set<PointId> distinct(r.value().medoids.begin(),
                             r.value().medoids.end());
  EXPECT_EQ(distinct.size(), 3u);
}


// Validated k-medoids from fixed initial medoids, two of them on one edge
// (the same-edge branch of the Equation (1) scan) plus one elsewhere.
TEST(KMedoidsTest, FixedInitialMedoidsSharingAnEdge) {
  GeneratedNetwork g = GenerateRoadNetwork({90, 1.3, 0.3, 201});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 160, 202)).value();
  InMemoryNetworkView view(g.net, ps);
  std::vector<PointId> shared;
  view.ForEachPointGroup([&](NodeId, NodeId, PointId first, uint32_t count) {
    if (shared.empty() && count >= 2) shared = {first, first + 1};
  });
  ASSERT_EQ(shared.size(), 2u);
  for (uint64_t seed : {10u, 11u, 12u}) {
    KMedoidsOptions opts;
    opts.initial_medoids = {shared[0], shared[1],
                            (shared[0] + ps.size() / 2) % ps.size()};
    opts.seed = seed;
    ClusterSpec spec = MakeSpec(opts);
    spec.validate = true;
    Result<ClusterOutput> out = RunClustering(view, spec);
    ASSERT_TRUE(out.ok()) << "seed " << seed << ": "
                          << out.status().ToString();
  }
}

// Validated k-medoids on a network of two components: the small
// component's points become noise while every medoid sits in the large
// one (they cost nothing, so the search tends to leave them there), and
// swap candidates drawn from it reach no other medoid.
TEST(KMedoidsTest, DisconnectedNetworkLeavesUnreachablePointsNoise) {
  GeneratedNetwork a = GenerateRoadNetwork({70, 1.3, 0.3, 51});
  GeneratedNetwork b = GenerateRoadNetwork({12, 1.3, 0.3, 52});
  const NodeId na = a.net.num_nodes();
  Network net(na + b.net.num_nodes());
  for (const Edge& e : a.net.Edges()) {
    ASSERT_TRUE(net.AddEdge(e.u, e.v, e.weight).ok());
  }
  for (const Edge& e : b.net.Edges()) {
    ASSERT_TRUE(net.AddEdge(na + e.u, na + e.v, e.weight).ok());
  }
  ASSERT_FALSE(net.IsConnected());
  PointSet ps = std::move(GenerateUniformPoints(net, 150, 53)).value();
  InMemoryNetworkView view(net, ps);
  bool noise = false;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    KMedoidsOptions opts;
    opts.k = 3;
    opts.seed = seed;
    ClusterSpec spec = MakeSpec(opts);
    spec.validate = true;
    Result<ClusterOutput> out = RunClustering(view, spec);
    ASSERT_TRUE(out.ok()) << "seed " << seed << ": "
                          << out.status().ToString();
    for (int c : out.value().clustering.assignment) {
      noise = noise || c == kNoise;
    }
  }
  EXPECT_TRUE(noise);
}

}  // namespace
}  // namespace netclus
