// Tests for Dijkstra primitives, the point network distance (Definition
// 4) and the eps-range query — all validated against brute force on
// randomized networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/exact_length.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network_distance.h"
#include "server/distance_cache.h"
#include "server/query.h"
#include "support/brute_force.h"

namespace netclus {
namespace {

TEST(NodeScratchTest, EpochInvalidatesWithoutClearing) {
  NodeScratch s(5);
  s.NewEpoch();
  EXPECT_FALSE(s.Has(3));
  EXPECT_EQ(s.Get(3), kInfDist);
  s.Set(3, 1.5);
  EXPECT_TRUE(s.Has(3));
  EXPECT_DOUBLE_EQ(s.Get(3), 1.5);
  s.NewEpoch();
  EXPECT_FALSE(s.Has(3));
}

// All-node distances from `sources` (kInfDist where unreachable).
std::vector<double> Distances(const NetworkView& view,
                              const std::vector<DijkstraSource>& sources) {
  TraversalWorkspace ws(view.num_nodes());
  DijkstraDistances(view, sources, &ws);
  std::vector<double> d(view.num_nodes());
  for (NodeId n = 0; n < view.num_nodes(); ++n) d[n] = ws.scratch.Get(n);
  return d;
}

TEST(DijkstraTest, PathNetworkDistances) {
  Network net = MakePathNetwork(5, 2.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  std::vector<double> d = Distances(view, {{0, 0.0}});
  for (NodeId i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(d[i], 2.0 * i);
}

TEST(DijkstraTest, MultiSourceTakesMinimum) {
  Network net = MakePathNetwork(5, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  std::vector<double> d = Distances(view, {{0, 0.0}, {4, 0.5}});
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[4], 0.5);
  EXPECT_DOUBLE_EQ(d[3], 1.5);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  std::vector<double> d = Distances(view, {{0, 0.0}});
  EXPECT_EQ(d[2], kInfDist);
}

TEST(DijkstraTest, MatchesFloydWarshallOnRandomNetworks) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RoadNetworkSpec spec;
    spec.target_nodes = 40;
    spec.edge_ratio = 1.4;
    spec.seed = seed;
    GeneratedNetwork g = GenerateRoadNetwork(spec);
    PointSet empty;
    InMemoryNetworkView view(g.net, empty);
    auto brute = BruteNodeDistances(g.net);
    for (NodeId s = 0; s < g.net.num_nodes(); s += 7) {
      std::vector<double> d = Distances(view, {{s, 0.0}});
      for (NodeId t = 0; t < g.net.num_nodes(); ++t) {
        ASSERT_NEAR(d[t], brute[s][t], 1e-9)
            << "seed " << seed << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(DijkstraTest, BoundedExpansionRespectsBound) {
  Network net = MakePathNetwork(10, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  TraversalWorkspace ws(10);
  std::vector<NodeId> settled;
  DijkstraExpandBounded(view, {{0, 0.0}}, 3.5, &ws,
                        [&](NodeId n, double d) {
                          EXPECT_LE(d, 3.5);
                          settled.push_back(n);
                          return true;
                        });
  EXPECT_EQ(settled.size(), 4u);  // nodes 0..3
}

TEST(DijkstraTest, BoundedExpansionSettlesInOrder) {
  GeneratedNetwork g = GenerateRoadNetwork({100, 1.3, 0.3, 9});
  PointSet empty;
  InMemoryNetworkView view(g.net, empty);
  TraversalWorkspace ws(g.net.num_nodes());
  double last = 0.0;
  DijkstraExpandBounded(view, {{0, 0.0}}, kInfDist, &ws,
                        [&](NodeId, double d) {
                          EXPECT_GE(d, last);
                          last = d;
                          return true;
                        });
}

TEST(DijkstraTest, EarlyStopViaCallback) {
  Network net = MakePathNetwork(100, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  TraversalWorkspace ws(100);
  int settles = 0;
  DijkstraExpandBounded(view, {{0, 0.0}}, kInfDist, &ws,
                        [&](NodeId, double) { return ++settles < 5; });
  EXPECT_EQ(settles, 5);
}

// ------------------------------------------------ point-level distances.

TEST(PointDistanceTest, SameEdgeCanShortcutThroughNetwork) {
  // Triangle where going around is shorter than along the edge: 0-1 is
  // 10 long, 0-2-1 is 2.
  Network net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 10.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(0, 2, 1.0).ok());
  PointSetBuilder b;
  b.Add(0, 1, 0.0, 0);   // on node 0
  b.Add(0, 1, 0.5, 0);   // near node 0
  b.Add(0, 1, 9.5, 0);   // near node 1
  b.Add(0, 1, 10.0, 0);  // on node 1
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  FrozenGraph frozen = std::move(mem.Freeze()).value();
  TraversalWorkspace ws(3);
  // E.g. 1 -> 2: along the edge 9.0, via nodes 0-2-1 0.5 + 2.0 + 0.5.
  const double want[4][4] = {{0.0, 0.5, 2.5, 2.0},
                             {0.5, 0.0, 3.0, 2.5},
                             {2.5, 3.0, 0.0, 0.5},
                             {2.0, 2.5, 0.5, 0.0}};
  for (PointId p = 0; p < 4; ++p) {
    for (PointId q = 0; q < 4; ++q) {
      double d = PointNetworkDistance(view, view, p, q, &ws);
      EXPECT_NEAR(d, want[p][q], 1e-12) << p << " -> " << q;
      double f = PointNetworkDistance(view, frozen, p, q, &ws);
      EXPECT_EQ(std::memcmp(&d, &f, sizeof(double)), 0) << p << " -> " << q;
    }
  }
}

TEST(PointDistanceTest, SelfDistanceIsZero) {
  Network net = MakePathNetwork(2, 5.0);
  PointSetBuilder b;
  b.Add(0, 1, 2.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  TraversalWorkspace ws(2);
  EXPECT_DOUBLE_EQ(PointNetworkDistance(view, view, 0, 0, &ws), 0.0);
}

class PointDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PointDistancePropertyTest, MatchesBruteDefinition4) {
  uint64_t seed = GetParam();
  RoadNetworkSpec spec{60, 1.35, 0.3, seed};
  GeneratedNetwork g = GenerateRoadNetwork(spec);
  Result<PointSet> ps = GenerateUniformPoints(g.net, 50, seed + 100);
  ASSERT_TRUE(ps.ok());
  InMemoryNetworkView mem(g.net, ps.value());
  const NetworkView& view = mem;
  TraversalWorkspace ws(g.net.num_nodes());
  auto pd = BrutePointDistanceMatrix(g.net, ps.value());
  for (PointId i = 0; i < 50; i += 3) {
    for (PointId j = i; j < 50; j += 5) {
      ASSERT_NEAR(PointNetworkDistance(view, view, i, j, &ws), pd[i][j], 1e-9)
          << "seed " << seed << " i=" << i << " j=" << j;
    }
  }
}

TEST_P(PointDistancePropertyTest, IsAMetric) {
  uint64_t seed = GetParam();
  GeneratedNetwork g = GenerateRoadNetwork({40, 1.3, 0.3, seed});
  Result<PointSet> ps = GenerateUniformPoints(g.net, 20, seed + 5);
  ASSERT_TRUE(ps.ok());
  auto pd = BrutePointDistanceMatrix(g.net, ps.value());
  InMemoryNetworkView mem(g.net, ps.value());
  const NetworkView& view = mem;
  TraversalWorkspace ws(g.net.num_nodes());
  for (PointId i = 0; i < 20; ++i) {
    for (PointId j = 0; j < 20; ++j) {
      // Symmetry (computed independently in both directions).
      ASSERT_NEAR(PointNetworkDistance(view, view, i, j, &ws),
                  PointNetworkDistance(view, view, j, i, &ws), 1e-9);
      for (PointId k = 0; k < 20; ++k) {
        ASSERT_LE(pd[i][k], pd[i][j] + pd[j][k] + 1e-9);  // triangle
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointDistancePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ------------------------------------ the bidirectional distance search.

// d(p, q) by the one-sided definition: an exhaustive Dijkstra from p's
// edge endpoints, joined at q's, with the direct distance on a shared
// edge.
double OneSidedDistance(const NetworkView& view, PointId p, PointId q) {
  if (p == q) return 0.0;
  PointPos pp = view.PointPosition(p);
  PointPos qq = view.PointPosition(q);
  double wp = view.EdgeWeight(pp.u, pp.v);
  double wq = view.EdgeWeight(qq.u, qq.v);
  std::vector<double> d =
      Distances(view, {{pp.u, pp.offset}, {pp.v, wp - pp.offset}});
  double best = std::min(d[qq.u] + qq.offset, d[qq.v] + (wq - qq.offset));
  if (pp.u == qq.u && pp.v == qq.v) {
    best = std::min(best, std::fabs(pp.offset - qq.offset));
  }
  return best;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// About two points per edge on random edges, plus a point at offset 0
// and one at offset w on every 7th edge.
PointSet PointsWithEndpointOffsets(const Network& net, uint64_t seed) {
  std::vector<Edge> edges = net.Edges();
  Rng rng(seed);
  PointSetBuilder b;
  for (size_t i = 0; i < 2 * edges.size(); ++i) {
    const Edge& e = edges[rng.NextBounded(edges.size())];
    b.Add(e.u, e.v, rng.NextUniform(0.0, e.weight), 0);
  }
  for (size_t i = 0; i < edges.size(); i += 7) {
    b.Add(edges[i].u, edges[i].v, 0.0, 0);
    b.Add(edges[i].u, edges[i].v, edges[i].weight, 0);
  }
  return std::move(std::move(b).Build(net)).value();
}

TEST(PointDistanceSearchTest, DisconnectedPairStopsOnTheSmallSide) {
  // A generated network plus a separate two-node component.
  GeneratedNetwork g = GenerateRoadNetwork({400, 1.3, 0.3, 5});
  const NodeId n = g.net.num_nodes();
  Network net(n + 2);
  for (const Edge& e : g.net.Edges()) {
    ASSERT_TRUE(net.AddEdge(e.u, e.v, e.weight).ok());
  }
  ASSERT_TRUE(net.AddEdge(n, n + 1, 3.0).ok());
  PointSetBuilder b;
  const Edge big = g.net.Edges().front();
  b.Add(big.u, big.v, big.weight / 2, 0);
  b.Add(n, n + 1, 1.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  FrozenGraph frozen = std::move(mem.Freeze()).value();
  TraversalWorkspace ws(n + 2);
  for (auto [p, q] : {std::pair<PointId, PointId>{0, 1}, {1, 0}}) {
    const uint64_t before = LocalTraversalCounters().settled_nodes;
    EXPECT_EQ(PointNetworkDistance(view, view, p, q, &ws), kInfDist);
    const uint64_t settled = LocalTraversalCounters().settled_nodes - before;
    EXPECT_FALSE(ws.cancel.triggered);
    // The small side empties its heap after its two nodes; the large
    // side stops with it instead of exhausting its component.
    EXPECT_LT(settled, n / 10) << p << " -> " << q;
    EXPECT_EQ(PointNetworkDistance(view, frozen, p, q, &ws), kInfDist);
  }
}

TEST(PointDistanceSearchTest, DeadlineMidSearchCachesNothing) {
  GeneratedNetwork g = GenerateRoadNetwork({400, 1.3, 0.3, 8});
  Result<PointSet> ps = GenerateUniformPoints(g.net, 200, 9);
  ASSERT_TRUE(ps.ok());
  InMemoryNetworkView mem(g.net, ps.value());
  const NetworkView& view = mem;
  FrozenGraph frozen = std::move(mem.Freeze()).value();
  TraversalWorkspace ws(view.num_nodes());

  // Pick a pair whose search settles well past the poll interval.
  constexpr uint32_t kInterval = 8;
  PointId a = 0, b = 1;
  for (PointId q = 1; q < ps.value().size(); ++q) {
    const uint64_t before = LocalTraversalCounters().settled_nodes;
    PointNetworkDistance(view, frozen, 0, q, &ws);
    if (LocalTraversalCounters().settled_nodes - before > 4 * kInterval) {
      b = q;
      break;
    }
  }
  ASSERT_NE(b, 1u);

  // An expired deadline, first polled at the 8th settle: both frontiers
  // have advanced by then, and the search abandons there.
  DistanceCache cache(64);
  ws.cancel.deadline = TraversalCancel::Clock::now() - std::chrono::seconds(1);
  ws.cancel.check_interval = kInterval;
  const uint64_t before = LocalTraversalCounters().settled_nodes;
  QueryResponse out;
  Status st = ExecuteQueryInto(view, &frozen, QueryRequest::PointDistance(a, b),
                               &ws, &cache, nullptr, &out);
  EXPECT_EQ(LocalTraversalCounters().settled_nodes - before, kInterval);
  EXPECT_TRUE(ws.cancel.triggered);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_EQ(cache.counters().stores, 0u);
  EXPECT_EQ(cache.size(), 0u);
  double cached = 0.0;
  EXPECT_FALSE(cache.Lookup(a, b, &cached));
}

// ------------------------------------- exact labels and landmark bounds.

TEST(ExactLengthTest, ConvertsInUnitsOfTwoToTheMinus64) {
  const ExactLength one = static_cast<ExactLength>(1) << 64;
  EXPECT_TRUE(ToExact(0.0) == 0);
  EXPECT_TRUE(ToExact(1.0) == one);
  EXPECT_TRUE(ToExact(0.5) == one / 2);
  EXPECT_TRUE(ToExact(3.25) == one * 13 / 4);
  EXPECT_TRUE(ToExact(0x1p-64) == 1);
  EXPECT_TRUE(ToExact(0x1p-65) == 0);  // below one unit
  EXPECT_TRUE(ToExact(1e-300) == 0);
  // The largest weight in the domain converts below 2^92 units.
  const double top = std::nextafter(kMaxEdgeWeight, 0.0);
  EXPECT_TRUE(ToExact(top) < (static_cast<ExactLength>(1) << 92));
  // Every double of at least 2^-11 is a whole number of units, so the
  // round trip is exact for road lengths.
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = std::ldexp(rng.NextDouble() + 0.5, -10 + i % 38);
    EXPECT_EQ(FromExact(ToExact(x)), x) << x;
  }
  // Rounding down is monotone: an offset never converts past its edge.
  for (int i = 0; i < 1000; ++i) {
    const double w = rng.NextUniform(1e-6, 100.0);
    const double off = rng.NextDouble() * w;
    EXPECT_TRUE(ToExact(off) <= ToExact(w));
  }
}

// The landmark snapshot, the plain snapshot and the view give the same
// bits for every pair, both directions, and stay within 1e-12 of the
// exhaustive one-sided reference; the tables cut the settles.
void ExpectExactAgreement(const Network& net, const PointSet& ps,
                          uint64_t seed, int pairs) {
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  FrozenGraph plain = std::move(mem.Freeze()).value();
  std::shared_ptr<const LandmarkTables> tables = LandmarkTables::Build(plain);
  ASSERT_NE(tables, nullptr);
  FrozenGraph landmarked = plain.WithLandmarks(tables);
  ASSERT_EQ(landmarked.landmarks(), tables.get());
  TraversalWorkspace ws(view.num_nodes());
  Rng rng(seed);
  int same_edge = 0, at_end = 0;
  uint64_t settled_plain = 0, settled_alt = 0;
  for (int i = 0; i < pairs; ++i) {
    PointId p = static_cast<PointId>(rng.NextBounded(ps.size()));
    PointId q = static_cast<PointId>(rng.NextBounded(ps.size()));
    if (i % 10 == 0) q = p;
    if (i % 10 == 1 && p + 1 < ps.size()) q = p + 1;
    const PointPos pp = view.PointPosition(p);
    const PointPos qq = view.PointPosition(q);
    same_edge += p != q && pp.u == qq.u && pp.v == qq.v;
    at_end += qq.offset == 0.0 || qq.offset == view.EdgeWeight(qq.u, qq.v);

    const double want = OneSidedDistance(view, p, q);
    uint64_t before = LocalTraversalCounters().settled_nodes;
    const double got = PointNetworkDistance(view, view, p, q, &ws);
    settled_plain += LocalTraversalCounters().settled_nodes - before;
    ASSERT_FALSE(ws.cancel.triggered);
    if (want == kInfDist) {
      EXPECT_EQ(got, kInfDist) << "p=" << p << " q=" << q;
    } else {
      ASSERT_NEAR(got, want, 1e-12 * want) << "p=" << p << " q=" << q;
    }
    before = LocalTraversalCounters().settled_nodes;
    const double alt = PointNetworkDistance(view, landmarked, p, q, &ws);
    settled_alt += LocalTraversalCounters().settled_nodes - before;
    EXPECT_TRUE(SameBits(got, alt)) << "landmarks changed d: p=" << p
                                    << " q=" << q;
    EXPECT_TRUE(SameBits(got, PointNetworkDistance(view, plain, p, q, &ws)))
        << "snapshot != view: p=" << p << " q=" << q;
    EXPECT_TRUE(
        SameBits(alt, PointNetworkDistance(view, landmarked, q, p, &ws)))
        << "d(q, p) != d(p, q): p=" << p << " q=" << q;
    EXPECT_TRUE(SameBits(got, PointNetworkDistance(view, view, q, p, &ws)))
        << "d(q, p) != d(p, q) over the view: p=" << p << " q=" << q;
  }
  EXPECT_GT(same_edge, 10);
  EXPECT_GT(at_end, 5);
  EXPECT_LT(2 * settled_alt, settled_plain)
      << "landmarks settled " << settled_alt << ", plain " << settled_plain;
}

// Generated networks at edge ratios from tree-like to dense.
class PointDistanceExactTest : public ::testing::TestWithParam<double> {};

TEST_P(PointDistanceExactTest, LandmarksChangeNoBitOnGeneratedNetworks) {
  GeneratedNetwork g = GenerateRoadNetwork({500, GetParam(), 0.3, 23});
  ExpectExactAgreement(g.net, PointsWithEndpointOffsets(g.net, 24), 25, 400);
}

INSTANTIATE_TEST_SUITE_P(EdgeRatios, PointDistanceExactTest,
                         ::testing::Values(1.0, 1.3, 1.8));

// A grid with weights of 1, 2 or 3 units and points at whole-unit
// offsets: many shortest paths tie exactly, so a potential that is off
// anywhere stops some search on a longer path. At a unit of 2^-64 every
// length is a small count of units that a double holds exactly, so even
// a one-unit error shows in the answer.
class PointDistanceExactTieTest : public ::testing::TestWithParam<double> {};

TEST_P(PointDistanceExactTieTest, LandmarksChangeNoBitOnTiedGrids) {
  const double unit = GetParam();
  constexpr NodeId kRows = 20, kCols = 25;
  Network net(kRows * kCols);
  Rng rng(61);
  auto weight = [&] {
    return unit * static_cast<double>(1 + rng.NextBounded(3));
  };
  for (NodeId r = 0; r < kRows; ++r) {
    for (NodeId c = 0; c < kCols; ++c) {
      const NodeId n = r * kCols + c;
      if (c + 1 < kCols) {
        ASSERT_TRUE(net.AddEdge(n, n + 1, weight()).ok());
      }
      if (r + 1 < kRows) {
        ASSERT_TRUE(net.AddEdge(n, n + kCols, weight()).ok());
      }
    }
  }
  std::vector<Edge> edges = net.Edges();
  PointSetBuilder b;
  for (size_t i = 0; i < 2 * edges.size(); ++i) {
    const Edge& e = edges[rng.NextBounded(edges.size())];
    const uint64_t steps = static_cast<uint64_t>(e.weight / unit);
    b.Add(e.u, e.v, unit * static_cast<double>(rng.NextBounded(steps + 1)),
          0);
  }
  ExpectExactAgreement(net, std::move(std::move(b).Build(net)).value(), 62,
                       600);
}

INSTANTIATE_TEST_SUITE_P(Units, PointDistanceExactTieTest,
                         ::testing::Values(1.0, 0x1p-64));

TEST(PointDistanceExactDisconnectedTest, LandmarksChangeNoBitAcrossParts) {
  // Two generated networks side by side: half the pairs are disconnected
  // (kInfDist both ways), and farthest-point sampling puts landmarks in
  // both parts.
  GeneratedNetwork a = GenerateRoadNetwork({250, 1.3, 0.3, 41});
  GeneratedNetwork b = GenerateRoadNetwork({250, 1.3, 0.3, 42});
  const NodeId shift = a.net.num_nodes();
  Network net(shift + b.net.num_nodes());
  for (const Edge& e : a.net.Edges()) {
    ASSERT_TRUE(net.AddEdge(e.u, e.v, e.weight).ok());
  }
  for (const Edge& e : b.net.Edges()) {
    ASSERT_TRUE(net.AddEdge(e.u + shift, e.v + shift, e.weight).ok());
  }
  ExpectExactAgreement(net, PointsWithEndpointOffsets(net, 43), 44, 400);
  PointSet empty;
  InMemoryNetworkView mem(net, empty);
  FrozenGraph plain = std::move(mem.Freeze()).value();
  std::shared_ptr<const LandmarkTables> tables = LandmarkTables::Build(plain);
  int in_a = 0;
  for (NodeId l : tables->landmarks()) in_a += l < shift;
  EXPECT_GT(in_a, 0);
  EXPECT_LT(in_a, static_cast<int>(LandmarkTables::kCount));
}

// ------------------------------------------------------- range queries.

TEST(RangeQueryTest, FindsExactlyPointsWithinEps) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    GeneratedNetwork g = GenerateRoadNetwork({50, 1.35, 0.3, seed});
    Result<PointSet> ps = GenerateUniformPoints(g.net, 60, seed);
    ASSERT_TRUE(ps.ok());
    InMemoryNetworkView mem(g.net, ps.value());
    const NetworkView& view = mem;
    TraversalWorkspace ws(g.net.num_nodes());
    auto pd = BrutePointDistanceMatrix(g.net, ps.value());
    for (PointId center = 0; center < 60; center += 7) {
      for (double eps : {0.5, 1.5, 4.0}) {
        std::vector<RangeResult> got;
        RangeQuery(view, view, center, eps, &ws, &got);
        std::vector<PointId> got_ids;
        for (const RangeResult& r : got) {
          got_ids.push_back(r.id);
          ASSERT_NEAR(r.dist, pd[center][r.id], 1e-9);
        }
        std::sort(got_ids.begin(), got_ids.end());
        std::vector<PointId> want;
        for (PointId q = 0; q < 60; ++q) {
          if (pd[center][q] <= eps) want.push_back(q);
        }
        ASSERT_EQ(got_ids, want) << "seed " << seed << " center " << center
                                 << " eps " << eps;
      }
    }
  }
}

class KnnPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KnnPropertyTest, MatchesBruteForceTopK) {
  const uint32_t k = GetParam();
  for (uint64_t seed : {21u, 22u, 23u}) {
    GeneratedNetwork g = GenerateRoadNetwork({50, 1.35, 0.3, seed});
    PointSet ps =
        std::move(GenerateUniformPoints(g.net, 60, seed + 8)).value();
    InMemoryNetworkView mem(g.net, ps);
    const NetworkView& view = mem;
    TraversalWorkspace ws(g.net.num_nodes());
    auto pd = BrutePointDistanceMatrix(g.net, ps);
    for (PointId center = 0; center < 60; center += 11) {
      std::vector<RangeResult> got;
      KNearestNeighbors(view, view, center, k, &ws, &got);
      // Brute top-k by (distance, id).
      std::vector<RangeResult> want;
      for (PointId q = 0; q < 60; ++q) {
        if (q != center) want.push_back({q, pd[center][q]});
      }
      std::sort(want.begin(), want.end(),
                [](const RangeResult& a, const RangeResult& b) {
                  return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
                });
      want.resize(std::min<size_t>(k, want.size()));
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        // Distances must match exactly; ids may differ only under ties.
        ASSERT_NEAR(got[i].dist, want[i].dist, 1e-9)
            << "seed " << seed << " center " << center << " rank " << i;
        ASSERT_NEAR(pd[center][got[i].id], got[i].dist, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnPropertyTest,
                         ::testing::Values(1u, 3u, 10u, 59u));

TEST(KnnTest, FewerReachableThanK) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1.0).ok());  // other component
  PointSetBuilder b;
  b.Add(0, 1, 0.2, 0);
  b.Add(0, 1, 0.8, 0);
  b.Add(2, 3, 0.5, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  TraversalWorkspace ws(4);
  std::vector<RangeResult> got;
  KNearestNeighbors(view, view, 0, 5, &ws, &got);
  ASSERT_EQ(got.size(), 1u);  // only point 1 reachable
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_DOUBLE_EQ(got[0].dist, 0.6);
}

TEST(KnnTest, ZeroKIsEmpty) {
  Network net = MakePathNetwork(2, 1.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.5, 0);
  b.Add(0, 1, 0.7, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  TraversalWorkspace ws(2);
  std::vector<RangeResult> got;
  KNearestNeighbors(view, view, 0, 0, &ws, &got);
  EXPECT_TRUE(got.empty());
}

TEST(KnnTest, CountsSettlesAndHeapPopsOverFrozenGraph) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 31});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 100, 32)).value();
  InMemoryNetworkView mem(g.net, ps);
  const NetworkView& view = mem;
  FrozenGraph frozen = std::move(mem.Freeze()).value();
  TraversalWorkspace ws(g.net.num_nodes());
  std::vector<RangeResult> got;

  TraversalCounters before = LocalTraversalCounters();
  KNearestNeighbors(view, frozen, 0, 10, &ws, &got);
  TraversalCounters frozen_delta = LocalTraversalCounters() - before;
  ASSERT_EQ(got.size(), 10u);
  EXPECT_GT(frozen_delta.settled_nodes, 0u);
  EXPECT_GE(frozen_delta.heap_pops, frozen_delta.settled_nodes);
  EXPECT_GE(frozen_delta.heap_pushes, frozen_delta.heap_pops);

  // The view runs the same expansion, so it counts the same work.
  before = LocalTraversalCounters();
  KNearestNeighbors(view, view, 0, 10, &ws, &got);
  TraversalCounters view_delta = LocalTraversalCounters() - before;
  EXPECT_EQ(view_delta.settled_nodes, frozen_delta.settled_nodes);
  EXPECT_EQ(view_delta.heap_pops, frozen_delta.heap_pops);
  EXPECT_EQ(view_delta.heap_pushes, frozen_delta.heap_pushes);
}

TEST(KnnTest, ExpiredDeadlineCancelsAndLeavesOutputEmpty) {
  GeneratedNetwork g = GenerateRoadNetwork({200, 1.3, 0.3, 33});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 100, 34)).value();
  InMemoryNetworkView mem(g.net, ps);
  const NetworkView& view = mem;
  TraversalWorkspace ws(g.net.num_nodes());
  std::vector<RangeResult> got{{7, 1.0}};  // stale output must not survive

  ws.cancel.deadline = TraversalCancel::Clock::now() - std::chrono::seconds(1);
  ws.cancel.check_interval = 1;  // poll at the first settle
  KNearestNeighbors(view, view, 0, 10, &ws, &got);
  EXPECT_TRUE(ws.cancel.triggered);
  EXPECT_TRUE(got.empty());
}

// ---------------------------------------------------------------------
// Cooperative cancellation (TraversalCancel).
// ---------------------------------------------------------------------

TEST(DijkstraCancelTest, PresetFlagAbandonsTheExpansion) {
  Network net = MakePathNetwork(64, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  TraversalWorkspace ws(64);

  // Already expired when the run starts.
  ws.cancel.deadline = TraversalCancel::Clock::now() - std::chrono::seconds(1);
  ws.cancel.check_interval = 1;  // poll at every settle
  DijkstraDistances(view, {{0, 0.0}}, &ws);

  EXPECT_TRUE(ws.cancel.triggered);
  // The first settled node is polled before its neighbors relax, so the
  // abandoned expansion never reaches the far end of the path.
  EXPECT_FALSE(ws.scratch.Has(63));
}

TEST(DijkstraCancelTest, FlagFlippedMidRunStopsWithinTheInterval) {
  Network net = MakePathNetwork(100, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  TraversalWorkspace ws(100);

  // The deadline moves into the past at the 10th settle; with
  // check_interval=1 the kernel must notice at the very next poll, long
  // before node 99.
  ws.cancel.check_interval = 1;
  int settles = 0;
  DijkstraExpandBounded(view, {DijkstraSource{0, 0.0}}, kInfDist, &ws,
                        [&](NodeId, double) {
                          if (++settles == 10) {
                            ws.cancel.deadline = TraversalCancel::Clock::now() -
                                                 std::chrono::seconds(1);
                          }
                          return true;
                        });
  EXPECT_TRUE(ws.cancel.triggered);
  EXPECT_LE(settles, 11);
  EXPECT_FALSE(ws.scratch.Has(99));
}

TEST(DijkstraCancelTest, InertTokenIsBitIdenticalToNoToken) {
  GeneratedNetwork gen = GenerateRoadNetwork({120, 1.3, 0.3, 7});
  PointSet empty;
  InMemoryNetworkView view(gen.net, empty);
  const NodeId n = gen.net.num_nodes();

  // Reference: a token whose poll interval exceeds the graph, so the
  // kernel never reads it during the run.
  TraversalWorkspace ref_ws(n);
  ref_ws.cancel.check_interval = n + 1;
  TraversalCounters before_ref = LocalTraversalCounters();
  DijkstraDistances(view, {{0, 0.0}}, &ref_ws);
  TraversalCounters ref = LocalTraversalCounters() - before_ref;

  // Workspace path with the default (inert) token, and again with a
  // deadline an hour out polled at every settle: distances and counters
  // must not move.
  for (bool arm : {false, true}) {
    TraversalWorkspace ws(n);
    if (arm) {
      ws.cancel.deadline =
          TraversalCancel::Clock::now() + std::chrono::hours(1);
      ws.cancel.check_interval = 1;
    }
    TraversalCounters before = LocalTraversalCounters();
    DijkstraDistances(view, {{0, 0.0}}, &ws);
    TraversalCounters got = LocalTraversalCounters() - before;

    EXPECT_FALSE(ws.cancel.triggered);
    EXPECT_EQ(got.settled_nodes, ref.settled_nodes) << "arm=" << arm;
    EXPECT_EQ(got.heap_pushes, ref.heap_pushes) << "arm=" << arm;
    EXPECT_EQ(got.heap_pops, ref.heap_pops) << "arm=" << arm;
    for (NodeId i = 0; i < n; ++i) {
      // Bitwise-exact: == on doubles, not a tolerance.
      EXPECT_EQ(ws.scratch.Get(i), ref_ws.scratch.Get(i)) << "node " << i;
    }
  }
}

TEST(DijkstraCancelTest, ZeroCheckIntervalIsClampedNotInfinite) {
  Network net = MakePathNetwork(32, 1.0);
  PointSet empty;
  InMemoryNetworkView view(net, empty);
  TraversalWorkspace ws(32);
  ws.cancel.deadline = TraversalCancel::Clock::now() - std::chrono::seconds(1);
  ws.cancel.check_interval = 0;  // must clamp to 1, not wrap to 2^32
  DijkstraDistances(view, {{0, 0.0}}, &ws);
  EXPECT_TRUE(ws.cancel.triggered);
  EXPECT_FALSE(ws.scratch.Has(31));
}

TEST(RangeQueryTest, CenterAlwaysIncluded) {
  Network net = MakePathNetwork(3, 100.0);
  PointSetBuilder b;
  b.Add(0, 1, 50.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  const NetworkView& view = mem;
  TraversalWorkspace ws(3);
  std::vector<RangeResult> got;
  RangeQuery(view, view, 0, 0.001, &ws, &got);  // eps smaller than any gap
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_DOUBLE_EQ(got[0].dist, 0.0);
}

}  // namespace
}  // namespace netclus
