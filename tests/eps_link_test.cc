// Tests for ε-Link: by definition its clusters must equal the connected
// components of the "pairs within eps" graph; also equivalence with
// DBSCAN(MinPts=2) and determinism.
#include <gtest/gtest.h>

#include <set>

#include "core/dbscan.h"
#include "core/eps_link.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "run_helpers.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

TEST(EpsLinkTest, RejectsNonPositiveEps) {
  Network net = MakePathNetwork(2, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  EpsLinkOptions opts;
  opts.eps = 0.0;
  EXPECT_TRUE(RunEpsLink(view, opts).status().IsInvalidArgument());
}

TEST(EpsLinkTest, ChainsAlongASingleEdge) {
  Network net = MakePathNetwork(2, 10.0);
  PointSetBuilder b;
  for (double off : {1.0, 1.5, 2.0, 5.0, 5.4}) b.Add(0, 1, off, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EpsLinkOptions opts;
  opts.eps = 0.6;
  Clustering c = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[1], c.assignment[2]);
  EXPECT_EQ(c.assignment[3], c.assignment[4]);
  EXPECT_NE(c.assignment[0], c.assignment[3]);
}

TEST(EpsLinkTest, ConnectsAcrossNodes) {
  // Points on opposite sides of a node, each within eps through it.
  Network net = MakePathNetwork(3, 4.0);
  PointSetBuilder b;
  b.Add(0, 1, 3.75, 0);  // 0.25 from node 1 (binary-exact)
  b.Add(1, 2, 0.25, 0);  // 0.25 from node 1 -> distance exactly 0.5
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EpsLinkOptions opts;
  opts.eps = 0.5;
  Clustering c = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 1);
  opts.eps = 0.49;
  c = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 2);
}

TEST(EpsLinkTest, RingShortcutJoinsSameEdgePoints) {
  // On a ring, two points on one edge can be closer the other way around.
  Network net = MakeRingNetwork(4, 1.0);  // perimeter 4
  PointSetBuilder b;
  b.Add(0, 1, 0.05, 0);
  b.Add(0, 1, 0.95, 0);  // direct 0.9; around 3 + 0.05 + 0.05 = 3.1
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EpsLinkOptions opts;
  opts.eps = 0.9;
  Clustering c = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 1);
}

TEST(EpsLinkTest, MinSupDemotesSmallClustersToNoise) {
  Network net = MakePathNetwork(2, 100.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(0, 1, 1.5, 0);
  b.Add(0, 1, 2.0, 0);
  b.Add(0, 1, 50.0, 0);  // isolated
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EpsLinkOptions opts;
  opts.eps = 1.0;
  opts.min_sup = 2;
  Clustering c = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.assignment[3], kNoise);
}

// Property: ε-Link == brute-force eps-components on random instances,
// swept over eps values.
class EpsLinkPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(EpsLinkPropertyTest, EqualsBruteForceComponents) {
  auto [seed, eps_scale] = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.35, 0.3, seed});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, seed + 1)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  double eps = eps_scale;  // network edge weights are ~1 grid unit
  EpsLinkOptions opts;
  opts.eps = eps;
  Clustering got = std::move(RunEpsLink(view, opts)).value();
  Clustering want = BruteEpsComponents(pd, eps, 1);
  EXPECT_TRUE(SamePartition(got.assignment, want.assignment))
      << "seed " << seed << " eps " << eps << "\nARI "
      << AdjustedRandIndex(got.assignment, want.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEps, EpsLinkPropertyTest,
    ::testing::Combine(::testing::Values(101u, 102u, 103u, 104u, 105u),
                       ::testing::Values(0.2, 0.5, 1.0, 2.5)));

// Dense-edge regime: clustered workloads put long chains of points on
// single edges, exercising the per-edge chaining logic and (on disk)
// group chunking much harder than uniform data.
class EpsLinkDenseEdgeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpsLinkDenseEdgeTest, ClusteredWorkloadEqualsBruteForce) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({40, 1.3, 0.3, seed});
  ClusterWorkloadSpec spec;
  spec.total_points = 90;
  spec.num_clusters = 3;
  spec.outlier_fraction = 0.05;
  spec.s_init = 0.05;  // ~6 points per unit edge in the cores
  spec.seed = seed + 1;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  auto pd = BrutePointDistanceMatrix(g.net, w.points);
  for (double eps : {0.5 * w.max_intra_gap, w.max_intra_gap,
                     3.0 * w.max_intra_gap}) {
    EpsLinkOptions opts;
    opts.eps = eps;
    Clustering got = std::move(RunEpsLink(view, opts)).value();
    Clustering want = BruteEpsComponents(pd, eps, 1);
    ASSERT_TRUE(SamePartition(got.assignment, want.assignment))
        << "seed " << seed << " eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpsLinkDenseEdgeTest,
                         ::testing::Values(501u, 502u, 503u, 504u, 505u,
                                           506u));

TEST(EpsLinkTest, EqualsDbscanWithMinPtsTwo) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    GeneratedNetwork g = GenerateRoadNetwork({80, 1.3, 0.3, seed});
    PointSet ps =
        std::move(GenerateUniformPoints(g.net, 120, seed + 2)).value();
    InMemoryNetworkView view(g.net, ps);
    EpsLinkOptions eo;
    eo.eps = 0.8;
    eo.min_sup = 2;  // match DBSCAN: singletons are noise
    Clustering el = std::move(RunEpsLink(view, eo)).value();
    DbscanOptions dopts;
    dopts.eps = 0.8;
    dopts.min_pts = 2;
    Clustering db = std::move(RunDbscan(view, dopts)).value();
    EXPECT_TRUE(SamePartition(el.assignment, db.assignment)) << "seed "
                                                             << seed;
  }
}

TEST(EpsLinkTest, DeterministicAcrossRuns) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 44});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 90, 45)).value();
  InMemoryNetworkView view(g.net, ps);
  EpsLinkOptions opts;
  opts.eps = 0.7;
  Clustering a = std::move(RunEpsLink(view, opts)).value();
  Clustering b = std::move(RunEpsLink(view, opts)).value();
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(EpsLinkTest, RecoversGeneratedClusters) {
  GeneratedNetwork g = GenerateRoadNetwork({3000, 1.3, 0.3, 55});
  ClusterWorkloadSpec spec;
  spec.total_points = 4000;
  spec.num_clusters = 5;
  spec.outlier_fraction = 0.01;
  spec.s_init = 0.01;
  spec.seed = 56;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  EpsLinkOptions opts;
  opts.eps = w.max_intra_gap;
  opts.min_sup = 10;
  Clustering c = std::move(RunEpsLink(view, opts)).value();
  // Structural guarantee at eps = max generator gap: a planted cluster is
  // never SPLIT (it is eps-connected by construction) and none of its
  // points becomes noise. Touching clusters may legitimately merge.
  for (uint32_t label = 0; label < spec.num_clusters; ++label) {
    std::set<int> predicted;
    for (PointId p = 0; p < w.points.size(); ++p) {
      if (w.points.label(p) == static_cast<int>(label)) {
        ASSERT_NE(c.assignment[p], kNoise) << "cluster point lost as noise";
        predicted.insert(c.assignment[p]);
      }
    }
    EXPECT_EQ(predicted.size(), 1u) << "planted cluster " << label
                                    << " was split";
  }
  double ari = AdjustedRandIndex(w.points.labels(), c.assignment,
                                 NoiseHandling::kIgnore);
  EXPECT_GT(ari, 0.9) << "clusters found: " << c.num_clusters;
}

}  // namespace
}  // namespace netclus
