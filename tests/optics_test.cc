// Tests for network OPTICS.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbscan.h"
#include "core/optics.h"
#include "graph/dijkstra.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "run_helpers.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

TEST(OpticsTest, RejectsBadOptions) {
  Network net = MakePathNetwork(2, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  OpticsOptions opts;
  opts.eps = 0.0;
  EXPECT_TRUE(OpticsOrder<NetworkView>(view, view, opts)
                  .status()
                  .IsInvalidArgument());
  opts.eps = 1.0;
  opts.min_pts = 0;
  EXPECT_TRUE(OpticsOrder<NetworkView>(view, view, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(OpticsTest, OrderingCoversEveryPointOnce) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 91});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, 92)).value();
  InMemoryNetworkView view(g.net, ps);
  OpticsOptions opts;
  opts.eps = 1.0;
  opts.min_pts = 3;
  OpticsResult r =
      std::move(OpticsOrder<NetworkView>(view, view, opts).value());
  ASSERT_EQ(r.order.size(), 80u);
  ASSERT_EQ(r.reachability.size(), 80u);
  std::vector<bool> seen(80, false);
  for (PointId p : r.order) {
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(OpticsTest, CoreDistancesMatchBruteForce) {
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.3, 0.3, 93});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 60, 94)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  const double eps = 1.2;
  const uint32_t min_pts = 4;
  OpticsResult r =
      std::move(OpticsOrder<NetworkView>(view, view,
                                         OpticsOptions{eps, min_pts})
                    .value());
  for (PointId p = 0; p < 60; ++p) {
    // Brute core distance: min_pts-th smallest distance (self included)
    // if within eps, else undefined.
    std::vector<double> dists;
    for (PointId q = 0; q < 60; ++q) {
      if (pd[p][q] <= eps) dists.push_back(pd[p][q]);
    }
    std::sort(dists.begin(), dists.end());
    double want = dists.size() >= min_pts ? dists[min_pts - 1] : kInfDist;
    ASSERT_NEAR(r.core_distance[p] == kInfDist ? -1.0 : r.core_distance[p],
                want == kInfDist ? -1.0 : want, 1e-9)
        << "point " << p;
  }
}

class OpticsExtractionTest : public ::testing::TestWithParam<double> {};

TEST_P(OpticsExtractionTest, ExtractionEqualsDbscanAtMinPts2) {
  const double eps_prime_frac = GetParam();
  for (uint64_t seed : {95u, 96u, 97u}) {
    GeneratedNetwork g = GenerateRoadNetwork({70, 1.3, 0.3, seed});
    PointSet ps =
        std::move(GenerateUniformPoints(g.net, 100, seed + 1)).value();
    InMemoryNetworkView view(g.net, ps);
    const double eps = 1.5;
    OpticsResult r =
        std::move(
            OpticsOrder<NetworkView>(view, view, OpticsOptions{eps, 2})
                .value());
    double eps_prime = eps * eps_prime_frac;
    Clustering extracted = ExtractDbscanClustering(r, eps_prime, 2);
    DbscanOptions dopts;
    dopts.eps = eps_prime;
    dopts.min_pts = 2;
    Clustering direct = std::move(RunDbscan(view, dopts)).value();
    EXPECT_TRUE(SamePartition(extracted.assignment, direct.assignment))
        << "seed " << seed << " eps' " << eps_prime;
  }
}

INSTANTIATE_TEST_SUITE_P(EpsPrimes, OpticsExtractionTest,
                         ::testing::Values(1.0, 0.6, 0.3, 0.12));

TEST(OpticsTest, ExtractionCorePointsMatchDbscanAtHigherMinPts) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 98});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 90, 99)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  const double eps = 1.0;
  const uint32_t min_pts = 4;
  OpticsResult r =
      std::move(OpticsOrder<NetworkView>(view, view,
                                         OpticsOptions{eps, min_pts})
                    .value());
  Clustering extracted = ExtractDbscanClustering(r, eps, min_pts);
  DbscanOptions dopts;
  dopts.eps = eps;
  dopts.min_pts = min_pts;
  Clustering direct = std::move(RunDbscan(view, dopts)).value();
  // Border points may attach differently; core points must agree.
  std::vector<bool> core = BruteCoreFlags(pd, eps, min_pts);
  std::vector<int> a, b;
  for (PointId p = 0; p < 90; ++p) {
    if (core[p]) {
      a.push_back(extracted.assignment[p]);
      b.push_back(direct.assignment[p]);
    }
  }
  EXPECT_TRUE(SamePartition(a, b));
}

TEST(OpticsTest, ComponentStartsHaveUndefinedReachability) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1.0).ok());
  PointSetBuilder b;
  b.Add(0, 1, 0.2, 0);
  b.Add(0, 1, 0.4, 0);
  b.Add(2, 3, 0.5, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  OpticsResult r =
      std::move(
          OpticsOrder<NetworkView>(view, view, OpticsOptions{1.0, 2})
              .value());
  int undefined = 0;
  for (double reach : r.reachability) {
    if (reach == kInfDist) ++undefined;
  }
  EXPECT_EQ(undefined, 2);  // one per connected point group
}

}  // namespace
}  // namespace netclus
