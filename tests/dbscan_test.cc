// Tests for the network DBSCAN adaptation: core/border/noise semantics
// against brute-force flags, for several MinPts values, and the points
// its range scans examine growing with N.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/dbscan.h"
#include "graph/dijkstra.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "run_helpers.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

TEST(DbscanTest, RejectsBadOptions) {
  Network net = MakePathNetwork(2, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  DbscanOptions opts;
  opts.eps = -1.0;
  EXPECT_TRUE(RunDbscan(view, opts).status().IsInvalidArgument());
  opts.eps = 1.0;
  opts.min_pts = 0;
  EXPECT_TRUE(RunDbscan(view, opts).status().IsInvalidArgument());
}

TEST(DbscanTest, IsolatedPointsAreNoise) {
  Network net = MakePathNetwork(2, 100.0);
  PointSetBuilder b;
  b.Add(0, 1, 10.0, 0);
  b.Add(0, 1, 50.0, 0);
  b.Add(0, 1, 90.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  DbscanOptions opts;
  opts.eps = 1.0;
  opts.min_pts = 2;
  Clustering c = std::move(RunDbscan(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 0);
  for (int a : c.assignment) EXPECT_EQ(a, kNoise);
}

TEST(DbscanTest, HigherMinPtsRequiresDenserCores) {
  // Five points in a tight chain: all core at MinPts=2; with MinPts=4
  // the chain ends lose core status but stay border.
  Network net = MakePathNetwork(2, 10.0);
  PointSetBuilder b;
  for (double off : {1.0, 1.4, 1.8, 2.2, 2.6}) b.Add(0, 1, off, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  DbscanOptions opts;
  opts.eps = 0.5;
  opts.min_pts = 4;
  Clustering c = std::move(RunDbscan(view, opts)).value();
  // Middle point sees 2 on each side within 0.8 -> eps=0.5 reaches one
  // neighbor each side... with eps 0.5 each point sees +-1 position:
  // neighborhood sizes: 2,3,3,3,2 -> no cores at MinPts=4 -> all noise.
  EXPECT_EQ(c.num_clusters, 0);
  opts.min_pts = 3;
  c = std::move(RunDbscan(view, opts)).value();
  // Sizes 2,3,3,3,2: middle three are cores, chain ends are border.
  EXPECT_EQ(c.num_clusters, 1);
  for (int a : c.assignment) EXPECT_EQ(a, 0);
}

// Property: core flags must match brute force; cluster components over
// core points must match; border points must attach to some cluster with
// a core point within eps; noise must be exactly the unreachable points.
class DbscanPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(DbscanPropertyTest, SemanticsMatchBruteForce) {
  auto [seed, min_pts] = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.35, 0.3, seed});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 70, seed + 3)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  const double eps = 0.9;
  DbscanOptions opts;
  opts.eps = eps;
  opts.min_pts = min_pts;
  Clustering c = std::move(RunDbscan(view, opts)).value();
  std::vector<bool> core = BruteCoreFlags(pd, eps, min_pts);

  const PointId n = ps.size();
  for (PointId p = 0; p < n; ++p) {
    if (core[p]) {
      // Core points always belong to a cluster.
      ASSERT_NE(c.assignment[p], kNoise) << "core point " << p << " is noise";
    } else if (c.assignment[p] != kNoise) {
      // Border point: must be within eps of a core point of its cluster.
      bool attached = false;
      for (PointId q = 0; q < n; ++q) {
        if (core[q] && c.assignment[q] == c.assignment[p] &&
            pd[p][q] <= eps) {
          attached = true;
          break;
        }
      }
      ASSERT_TRUE(attached) << "border point " << p << " not justified";
    } else {
      // Noise: no core point within eps.
      for (PointId q = 0; q < n; ++q) {
        ASSERT_FALSE(core[q] && pd[p][q] <= eps)
            << "point " << p << " marked noise but reachable from core " << q;
      }
    }
  }
  // Density-connectivity: two core points within eps share a cluster, and
  // core points in the same cluster are transitively eps-connected.
  for (PointId p = 0; p < n; ++p) {
    if (!core[p]) continue;
    for (PointId q = p + 1; q < n; ++q) {
      if (core[q] && pd[p][q] <= eps) {
        ASSERT_EQ(c.assignment[p], c.assignment[q]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMinPts, DbscanPropertyTest,
    ::testing::Combine(::testing::Values(201u, 202u, 203u),
                       ::testing::Values(2u, 3u, 5u)));

// The determinism-under-parallelism contract: with num_threads > 1 the
// eps-neighborhoods are precomputed in parallel and the serial growth
// scan replayed over the cache, so the labeling must be identical to the
// serial run — same cluster ids, not just the same partition.
class DbscanParallelTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(DbscanParallelTest, ParallelMatchesSerialExactly) {
  auto [seed, min_pts] = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({55, 1.35, 0.3, seed});
  PointSet ps =
      std::move(GenerateUniformPoints(g.net, 120, seed + 5)).value();
  InMemoryNetworkView view(g.net, ps);
  DbscanOptions opts;
  opts.eps = 0.8;
  opts.min_pts = min_pts;
  opts.num_threads = 1;
  Clustering serial = std::move(RunDbscan(view, opts)).value();
  opts.num_threads = 4;
  Clustering parallel = std::move(RunDbscan(view, opts)).value();
  EXPECT_EQ(serial.num_clusters, parallel.num_clusters);
  EXPECT_EQ(serial.assignment, parallel.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMinPts, DbscanParallelTest,
    ::testing::Combine(::testing::Values(301u, 302u, 303u),
                       ::testing::Values(2u, 4u)));

TEST(DbscanTest, DeterministicAcrossRuns) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 61});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, 62)).value();
  InMemoryNetworkView view(g.net, ps);
  DbscanOptions opts;
  opts.eps = 0.8;
  opts.min_pts = 3;
  Clustering a = std::move(RunDbscan(view, opts)).value();
  Clustering b = std::move(RunDbscan(view, opts)).value();
  EXPECT_EQ(a.assignment, b.assignment);
}

// DBSCAN's cost is its N range scans, which the settle counter does not
// see grow (paper Fig. 13): on a fixed network and eps, more points mean
// more scans over more points each, and every scan examines at least its
// own center.
TEST(DbscanTest, PointsExaminedGrowWithNOnAFixedNetwork) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 71});
  DbscanOptions opts;
  opts.eps = 0.5;
  opts.min_pts = 3;
  uint64_t last = 0;
  for (PointId n : {100u, 200u, 400u, 800u}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    PointSet ps = std::move(GenerateUniformPoints(g.net, n, 72)).value();
    InMemoryNetworkView view(g.net, ps);
    const TraversalCounters before = LocalTraversalCounters();
    ASSERT_TRUE(RunDbscan(view, opts).ok());
    const uint64_t examined =
        (LocalTraversalCounters() - before).points_examined;
    EXPECT_GE(examined, n);
    EXPECT_GT(examined, last);
    last = examined;
  }
}

}  // namespace
}  // namespace netclus
