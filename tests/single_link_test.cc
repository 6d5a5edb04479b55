// Tests for Single-Link: exact dendrogram vs. brute-force Kruskal, the δ
// scalability heuristic, and the ε-Link equivalence of Section 5.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/eps_link.h"
#include "core/single_link.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "run_helpers.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

std::vector<double> SortedHeights(const Dendrogram& d) {
  std::vector<double> out;
  for (const Merge& m : d.merges()) out.push_back(m.distance);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SingleLinkTest, RejectsBadOptions) {
  Network net = MakePathNetwork(2, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  SingleLinkOptions opts;
  opts.delta = -1.0;
  EXPECT_TRUE(RunSingleLink(view, opts).status().IsInvalidArgument());
  opts.delta = 0.0;
  opts.stop_cluster_count = 0;
  EXPECT_TRUE(RunSingleLink(view, opts).status().IsInvalidArgument());
}

TEST(SingleLinkTest, EmptyAndSinglePoint) {
  Network net = MakePathNetwork(3, 2.0);
  {
    PointSet empty;
    InMemoryNetworkView view(net, empty);
    Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().dendrogram.merges().empty());
  }
  {
    PointSetBuilder b;
    b.Add(0, 1, 1.0, 0);
    PointSet ps = std::move(std::move(b).Build(net)).value();
    InMemoryNetworkView view(net, ps);
    Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().dendrogram.merges().empty());
  }
}

TEST(SingleLinkTest, PaperFigure9StyleChain) {
  // Points along a path network; the dendrogram must merge in gap order.
  Network net = MakePathNetwork(2, 20.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(0, 1, 2.0, 0);   // gap 1
  b.Add(0, 1, 4.5, 0);   // gap 2.5
  b.Add(0, 1, 10.0, 0);  // gap 5.5
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(r.ok());
  std::vector<double> heights = SortedHeights(r.value().dendrogram);
  ASSERT_EQ(heights.size(), 3u);
  EXPECT_DOUBLE_EQ(heights[0], 1.0);
  EXPECT_DOUBLE_EQ(heights[1], 2.5);
  EXPECT_DOUBLE_EQ(heights[2], 5.5);
}

// The central exactness property: Single-Link over the network equals
// brute-force Kruskal over the full point distance matrix — both the
// multiset of merge heights and every flat cut.
class SingleLinkPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SingleLinkPropertyTest, MatchesBruteForceDendrogram) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.35, 0.3, seed});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 70, seed + 7)).value();
  InMemoryNetworkView view(g.net, ps);
  auto pd = BrutePointDistanceMatrix(g.net, ps);
  Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(r.ok());
  Dendrogram brute = BruteSingleLink(pd);

  std::vector<double> got = SortedHeights(r.value().dendrogram);
  std::vector<double> want = SortedHeights(brute);
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-9) << "seed " << seed << " merge " << i;
  }
  // Flat cuts at several thresholds must induce identical partitions.
  for (double frac : {0.1, 0.3, 0.5, 0.9}) {
    double threshold = want.empty() ? 0.0 : want[static_cast<size_t>(
                                                frac * (want.size() - 1))];
    Clustering a = r.value().dendrogram.CutAtDistance(threshold);
    Clustering b = brute.CutAtDistance(threshold);
    EXPECT_TRUE(SamePartition(a.assignment, b.assignment))
        << "seed " << seed << " threshold " << threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleLinkPropertyTest,
                         ::testing::Values(301u, 302u, 303u, 304u, 305u, 306u,
                                           307u, 308u));

// Same exactness check on workloads with planted structure: dense cores
// (long same-edge point chains) and sparse boundaries stress the pair
// heap ordering and the per-edge initialization.
class SingleLinkClusteredTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SingleLinkClusteredTest, DendrogramMatchesBrute) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({80, 1.3, 0.3, seed});
  ClusterWorkloadSpec spec;
  spec.total_points = 90;
  spec.num_clusters = 3;
  spec.outlier_fraction = 0.05;
  spec.s_init = 0.1;
  spec.seed = seed + 1;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  auto pd = BrutePointDistanceMatrix(g.net, w.points);
  Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(r.ok());
  std::vector<double> got = SortedHeights(r.value().dendrogram);
  std::vector<double> want = SortedHeights(BruteSingleLink(pd));
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-9) << "seed " << seed << " merge " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleLinkClusteredTest,
                         ::testing::Values(311u, 313u, 314u, 315u, 316u));

TEST(SingleLinkTest, DeltaHeuristicExactAboveDelta) {
  GeneratedNetwork g = GenerateRoadNetwork({70, 1.3, 0.3, 321});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, 322)).value();
  InMemoryNetworkView view(g.net, ps);
  Result<SingleLinkResult> exact = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(exact.ok());
  SingleLinkOptions with_delta;
  with_delta.delta = 0.4;
  Result<SingleLinkResult> heur = RunSingleLink(view, with_delta);
  ASSERT_TRUE(heur.ok());
  // Above delta the merge heights must be identical...
  std::vector<double> he = SortedHeights(exact.value().dendrogram);
  std::vector<double> hh = SortedHeights(heur.value().dendrogram);
  ASSERT_EQ(he.size(), hh.size());
  for (size_t i = 0; i < he.size(); ++i) {
    if (he[i] > with_delta.delta) {
      ASSERT_NEAR(he[i], hh[i], 1e-9) << "merge " << i;
    }
  }
  // ...and cuts above delta identical.
  for (double cut : {0.41, 0.8, 1.5}) {
    EXPECT_TRUE(SamePartition(
        exact.value().dendrogram.CutAtDistance(cut).assignment,
        heur.value().dendrogram.CutAtDistance(cut).assignment))
        << "cut " << cut;
  }
  // The heuristic must actually reduce the starting cluster count.
  EXPECT_LT(heur.value().stats.initial_clusters,
            exact.value().stats.initial_clusters);
}

// Sweep: for every (seed, delta fraction), the heuristic dendrogram must
// agree with the exact one on all cuts above delta.
class DeltaSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(DeltaSweepTest, CutsAboveDeltaIdentical) {
  auto [seed, delta_frac] = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, seed});
  ClusterWorkloadSpec spec;
  spec.total_points = 120;
  spec.num_clusters = 4;
  spec.outlier_fraction = 0.05;
  spec.s_init = 0.08;
  spec.seed = seed + 1;
  GeneratedWorkload w = std::move(GenerateClusteredPoints(g.net, spec).value());
  InMemoryNetworkView view(g.net, w.points);
  Result<SingleLinkResult> exact = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(exact.ok());
  std::vector<double> heights = SortedHeights(exact.value().dendrogram);
  if (heights.empty()) GTEST_SKIP();
  double delta = delta_frac * heights[heights.size() / 2];
  SingleLinkOptions opts;
  opts.delta = delta;
  Result<SingleLinkResult> heur = RunSingleLink(view, opts);
  ASSERT_TRUE(heur.ok());
  for (double frac : {0.55, 0.7, 0.9, 1.0}) {
    double cut = heights[static_cast<size_t>(frac * (heights.size() - 1))];
    if (cut <= delta) continue;
    EXPECT_TRUE(SamePartition(
        exact.value().dendrogram.CutAtDistance(cut).assignment,
        heur.value().dendrogram.CutAtDistance(cut).assignment))
        << "seed " << seed << " delta " << delta << " cut " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDeltas, DeltaSweepTest,
    ::testing::Combine(::testing::Values(401u, 402u, 403u, 404u),
                       ::testing::Values(0.2, 0.6, 1.0)));

TEST(SingleLinkTest, StopAtClusterCount) {
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.3, 0.3, 331});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 40, 332)).value();
  InMemoryNetworkView view(g.net, ps);
  SingleLinkOptions opts;
  opts.stop_cluster_count = 5;
  Result<SingleLinkResult> r = RunSingleLink(view, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().dendrogram.merges().size(), 40u - 5u);
}

TEST(SingleLinkTest, CutAtEpsEqualsEpsLink) {
  // Paper Section 5.1: stopping Single-Link at merge distance eps yields
  // exactly the ε-Link clusters.
  for (uint64_t seed : {341u, 342u, 343u}) {
    GeneratedNetwork g = GenerateRoadNetwork({70, 1.3, 0.3, seed});
    PointSet ps =
        std::move(GenerateUniformPoints(g.net, 100, seed + 1)).value();
    InMemoryNetworkView view(g.net, ps);
    const double eps = 0.8;
    Result<SingleLinkResult> sl = RunSingleLink(view, SingleLinkOptions{});
    ASSERT_TRUE(sl.ok());
    Clustering cut = sl.value().dendrogram.CutAtDistance(eps);
    EpsLinkOptions eo;
    eo.eps = eps;
    Clustering el = std::move(RunEpsLink(view, eo)).value();
    EXPECT_TRUE(SamePartition(cut.assignment, el.assignment)) << seed;
  }
}

TEST(SingleLinkTest, EpsLinkAndSingleLinkCountTheirTraversals) {
  // Both expansions bump the calling thread's TraversalCounters, so the
  // paper benches can compare their work with the other methods'.
  GeneratedNetwork g = GenerateRoadNetwork({70, 1.3, 0.3, 345});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 100, 346)).value();
  InMemoryNetworkView view(g.net, ps);

  EpsLinkOptions eo;
  eo.eps = 0.8;
  TraversalCounters before = LocalTraversalCounters();
  ASSERT_TRUE(RunEpsLink(view, eo).ok());
  TraversalCounters eps_link = LocalTraversalCounters() - before;
  EXPECT_GT(eps_link.settled_nodes, 0u);
  EXPECT_GE(eps_link.heap_pops, eps_link.settled_nodes);
  // Every cluster's expansion drains its heap.
  EXPECT_EQ(eps_link.heap_pushes, eps_link.heap_pops);

  before = LocalTraversalCounters();
  Result<SingleLinkResult> sl = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(sl.ok());
  TraversalCounters single_link = LocalTraversalCounters() - before;
  EXPECT_GT(single_link.settled_nodes, 0u);
  EXPECT_EQ(single_link.settled_nodes, sl.value().stats.nodes_expanded);
  EXPECT_GE(single_link.heap_pops, single_link.settled_nodes);
  EXPECT_GE(single_link.heap_pushes, single_link.heap_pops);
}

TEST(SingleLinkTest, StopDistanceTruncatesDendrogram) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 351});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 80, 352)).value();
  InMemoryNetworkView view(g.net, ps);
  Result<SingleLinkResult> full = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(full.ok());
  SingleLinkOptions opts;
  opts.stop_distance = 0.6;
  Result<SingleLinkResult> part = RunSingleLink(view, opts);
  ASSERT_TRUE(part.ok());
  // All merges <= 0.6 from the full run must appear, none beyond.
  size_t expected = 0;
  for (double h : SortedHeights(full.value().dendrogram)) {
    if (h <= 0.6) ++expected;
  }
  EXPECT_EQ(part.value().dendrogram.merges().size(), expected);
  for (const Merge& m : part.value().dendrogram.merges()) {
    EXPECT_LE(m.distance, 0.6);
  }
  // It must also expand fewer nodes than the full run (the cost argument
  // for stopping at eps).
  EXPECT_LT(part.value().stats.nodes_expanded,
            full.value().stats.nodes_expanded);
}

TEST(SingleLinkTest, MergeDistancesAreMonotoneAfterInit) {
  GeneratedNetwork g = GenerateRoadNetwork({60, 1.3, 0.3, 361});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 60, 362)).value();
  InMemoryNetworkView view(g.net, ps);
  Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(r.ok());
  // Without delta, recorded merges must be globally nondecreasing (the
  // gate guarantees Kruskal order).
  const auto& merges = r.value().dendrogram.merges();
  for (size_t i = 1; i < merges.size(); ++i) {
    ASSERT_GE(merges[i].distance, merges[i - 1].distance - 1e-12)
        << "merge " << i;
  }
}

TEST(SingleLinkTest, DisconnectedPointsNeverMerge) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1.0).ok());  // separate component
  PointSetBuilder b;
  b.Add(0, 1, 0.2, 0);
  b.Add(0, 1, 0.6, 0);
  b.Add(2, 3, 0.5, 1);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  Result<SingleLinkResult> r = RunSingleLink(view, SingleLinkOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().dendrogram.merges().size(), 1u);  // only 0+1
}

}  // namespace
}  // namespace netclus
