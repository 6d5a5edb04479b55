// Tests for the in-memory network model, point sets and views.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "graph/network.h"
#include "graph/renumbering.h"

namespace netclus {
namespace {

TEST(NetworkTest, AddEdgeValidation) {
  Network net(3);
  EXPECT_TRUE(net.AddEdge(0, 1, 2.0).ok());
  EXPECT_TRUE(net.AddEdge(0, 0, 1.0).IsInvalidArgument());   // self loop
  EXPECT_TRUE(net.AddEdge(1, 0, 1.0).IsInvalidArgument());   // duplicate
  EXPECT_TRUE(net.AddEdge(0, 3, 1.0).IsInvalidArgument());   // out of range
  EXPECT_TRUE(net.AddEdge(1, 2, 0.0).IsInvalidArgument());   // zero weight
  EXPECT_TRUE(net.AddEdge(1, 2, -1.0).IsInvalidArgument());  // negative
  EXPECT_EQ(net.num_edges(), 1u);
}

TEST(NetworkTest, AddEdgeRejectsNonFiniteWeights) {
  Network net(3);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(net.AddEdge(0, 1, inf).IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(0, 1, -inf).IsInvalidArgument());
  EXPECT_TRUE(
      net.AddEdge(0, 1, std::numeric_limits<double>::quiet_NaN())
          .IsInvalidArgument());
  EXPECT_EQ(net.num_edges(), 0u);
}

TEST(NetworkTest, AddEdgeEnforcesTheWeightDomain) {
  // Weights lie in (0, 2^28): the exact path lengths of the distance
  // search (graph/exact_length.h) cannot overflow below that.
  Network net(4);
  EXPECT_TRUE(net.AddEdge(0, 1, kMaxEdgeWeight).IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(0, 1, 1e300).IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(0, 1, 0.0).IsInvalidArgument());
  EXPECT_EQ(net.num_edges(), 0u);
  const double top = std::nextafter(kMaxEdgeWeight, 0.0);
  EXPECT_TRUE(net.AddEdge(0, 1, top).ok());
  EXPECT_TRUE(net.AddEdge(1, 2, 1e-300).ok());
  EXPECT_EQ(net.EdgeWeight(0, 1), top);
  EXPECT_FALSE(IsEdgeWeightInDomain(kMaxEdgeWeight));
  EXPECT_FALSE(IsEdgeWeightInDomain(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(IsEdgeWeightInDomain(top));
}

TEST(NetworkTest, EdgeWeightIsSymmetric) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(2, 1, 3.5).ok());
  EXPECT_DOUBLE_EQ(net.EdgeWeight(1, 2), 3.5);
  EXPECT_DOUBLE_EQ(net.EdgeWeight(2, 1), 3.5);
  EXPECT_LT(net.EdgeWeight(0, 1), 0.0);
  EXPECT_TRUE(net.HasEdge(1, 2));
  EXPECT_FALSE(net.HasEdge(0, 2));
}

TEST(NetworkTest, NeighborsBothDirections) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(0, 2, 2.0).ok());
  EXPECT_EQ(net.neighbors(0).size(), 2u);
  EXPECT_EQ(net.neighbors(1).size(), 1u);
  EXPECT_EQ(net.neighbors(3).size(), 0u);
}

TEST(NetworkTest, EdgesAreCanonicalAndSorted) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(3, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 0, 1.0).ok());
  std::vector<Edge> edges = net.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 2u);
  EXPECT_EQ(edges[1].u, 1u);
  EXPECT_EQ(edges[1].v, 3u);
}

TEST(NetworkTest, Connectivity) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 1.0).ok());
  EXPECT_FALSE(net.IsConnected());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(net.IsConnected());
}

TEST(PointSetTest, IdsAreGroupedAndSortedByOffset) {
  Network net = MakePathNetwork(4, 10.0);
  PointSetBuilder b;
  b.Add(2, 3, 4.0, 30);  // later edge
  b.Add(0, 1, 7.0, 11);
  b.Add(0, 1, 2.0, 10);  // same edge, smaller offset -> smaller id
  Result<PointSet> ps = std::move(b).Build(net);
  ASSERT_TRUE(ps.ok());
  const PointSet& p = ps.value();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p.offset(0), 2.0);
  EXPECT_EQ(p.label(0), 10);
  EXPECT_DOUBLE_EQ(p.offset(1), 7.0);
  EXPECT_EQ(p.label(1), 11);
  EXPECT_DOUBLE_EQ(p.offset(2), 4.0);
  EXPECT_EQ(p.label(2), 30);
  EXPECT_EQ(p.position(2).u, 2u);
  EXPECT_EQ(p.position(2).v, 3u);
}

TEST(PointSetTest, RawToFinalMapping) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(1, 2, 9.0, 0);  // raw 0 -> final id 2
  b.Add(0, 1, 5.0, 1);  // raw 1 -> final id 1
  b.Add(0, 1, 1.0, 2);  // raw 2 -> final id 0
  std::vector<PointId> mapping;
  Result<PointSet> ps = std::move(b).Build(net, &mapping);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(mapping, (std::vector<PointId>{2, 1, 0}));
  EXPECT_EQ(ps.value().label(2), 0);
}

TEST(PointSetTest, RejectsInvalidPlacements) {
  Network net = MakePathNetwork(3, 10.0);
  {
    PointSetBuilder b;
    b.Add(0, 2, 1.0, 0);  // no such edge
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
  {
    PointSetBuilder b;
    b.Add(0, 1, 10.5, 0);  // beyond edge weight
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
  {
    PointSetBuilder b;
    b.Add(0, 1, -0.1, 0);  // negative offset
    EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
  }
}

TEST(PointSetTest, RejectsNaNOffset) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, std::numeric_limits<double>::quiet_NaN(), 0);
  EXPECT_TRUE(std::move(b).Build(net).status().IsInvalidArgument());
}

TEST(PointSetTest, EndpointOffsetsAllowed) {
  Network net = MakePathNetwork(3, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 0.0, 0);
  b.Add(0, 1, 10.0, 1);
  Result<PointSet> ps = std::move(b).Build(net);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps.value().size(), 2u);
}

TEST(PointSetTest, EdgePointRange) {
  Network net = MakePathNetwork(4, 10.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(0, 1, 2.0, 0);
  b.Add(2, 3, 3.0, 0);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  auto [first01, count01] = ps.EdgePointRange(1, 0);  // order-insensitive
  EXPECT_EQ(first01, 0u);
  EXPECT_EQ(count01, 2u);
  auto [first12, count12] = ps.EdgePointRange(1, 2);
  EXPECT_EQ(count12, 0u);
  (void)first12;
  EXPECT_EQ(ps.num_groups(), 2u);
}

TEST(InMemoryViewTest, ExposesNetworkAndPoints) {
  Network net = MakePathNetwork(3, 4.0);
  PointSetBuilder b;
  b.Add(0, 1, 1.0, 0);
  b.Add(1, 2, 3.0, 1);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  EXPECT_EQ(view.num_nodes(), 3u);
  EXPECT_EQ(view.num_points(), 2u);
  EXPECT_DOUBLE_EQ(view.EdgeWeight(0, 1), 4.0);

  int neighbor_count = 0;
  view.ForEachNeighbor(1, [&](NodeId m, double w) {
    EXPECT_DOUBLE_EQ(w, 4.0);
    EXPECT_TRUE(m == 0 || m == 2);
    ++neighbor_count;
  });
  EXPECT_EQ(neighbor_count, 2);

  std::vector<EdgePoint> pts;
  view.GetEdgePoints(1, 0, &pts);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].id, 0u);
  EXPECT_DOUBLE_EQ(pts[0].offset, 1.0);

  int groups = 0;
  view.ForEachPointGroup([&](NodeId u, NodeId v, PointId first,
                             uint32_t count) {
    EXPECT_LT(u, v);
    EXPECT_EQ(count, 1u);
    EXPECT_TRUE(first == 0 || first == 1);
    ++groups;
  });
  EXPECT_EQ(groups, 2);
}

TEST(InMemoryViewTest, PointPositionMatchesPointSet) {
  Network net = MakeRingNetwork(5, 2.0);
  PointSetBuilder b;
  b.Add(4, 0, 1.5, 7);  // canonicalizes to (0, 4)
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView view(net, ps);
  PointPos pos = view.PointPosition(0);
  EXPECT_EQ(pos.u, 0u);
  EXPECT_EQ(pos.v, 4u);
  EXPECT_DOUBLE_EQ(pos.offset, 1.5);
}

// ---------------------------------------------------------------------
// PointSetBuilder::Merge: new points merged into an existing PointSet
// must give exactly what one Build over all of them gives.
// ---------------------------------------------------------------------

// One placement, as handed to PointSetBuilder::Add.
struct Placement {
  NodeId a;
  NodeId b;
  double offset;
  int label;
};

PointSetBuilder BuilderOf(const std::vector<Placement>& placements) {
  PointSetBuilder b;
  for (const Placement& p : placements) b.Add(p.a, p.b, p.offset, p.label);
  return b;
}

// Merging `batch` into the set built from `base` equals one Build over
// base then batch: the same set bit for bit, and the merge's renumbering
// puts each base point where that Build puts it (through base's own raw
// mapping, as a server composes it), each batch point likewise, and each
// base group where that Build puts it, with the opened groups on edges
// that held no base point — or, when the batch holds a bad point, the
// same Status.
void ExpectMergeEqualsBuild(const Network& net,
                            const std::vector<Placement>& base,
                            const std::vector<Placement>& batch) {
  std::vector<PointId> base_raw;
  Result<PointSet> base_set = BuilderOf(base).Build(net, &base_raw);
  ASSERT_TRUE(base_set.ok()) << base_set.status().ToString();
  PointSetMerge merge;
  Result<PointSet> merged =
      BuilderOf(batch).Merge(net, base_set.value(), &merge);

  std::vector<Placement> all = base;
  all.insert(all.end(), batch.begin(), batch.end());
  std::vector<PointId> all_raw;
  Result<PointSet> full = BuilderOf(all).Build(net, &all_raw);
  ASSERT_EQ(merged.ok(), full.ok());
  if (!full.ok()) {
    EXPECT_EQ(merged.status().ToString(), full.status().ToString());
    return;
  }
  EXPECT_TRUE(merged.value().BitIdenticalTo(full.value()));
  ASSERT_EQ(merge.points.size(), batch.size());
  ASSERT_EQ(merge.added_order.size(), batch.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(merge.points.Remap(base_raw[i]), all_raw[i])
        << "base point " << i;
  }
  std::vector<bool> seen(batch.size(), false);
  for (size_t idx = 0; idx < batch.size(); ++idx) {
    const uint32_t j = merge.added_order[idx];
    ASSERT_LT(j, batch.size());
    EXPECT_FALSE(seen[j]) << "added " << j << " listed twice";
    seen[j] = true;
    EXPECT_EQ(merge.points.inserted()[idx], all_raw[base.size() + j])
        << "added " << j;
  }
  const PointSet& before = base_set.value();
  const PointSet& after = full.value();
  ASSERT_EQ(after.num_groups(), before.num_groups() + merge.groups.size());
  for (uint32_t g = 0; g < before.num_groups(); ++g) {
    const PointSet::Group& moved = after.group(merge.groups.Remap(g));
    EXPECT_EQ(moved.u, before.group(g).u) << "base group " << g;
    EXPECT_EQ(moved.v, before.group(g).v) << "base group " << g;
  }
  for (uint32_t g : merge.groups.inserted()) {
    ASSERT_LT(g, after.num_groups());
    EXPECT_EQ(before.EdgePointRange(after.group(g).u, after.group(g).v).second,
              0u)
        << "opened group " << g << " holds base points";
  }
}

// EdgePointRange against a scan of every point's position, for every
// ordered node pair — both orientations of each edge, and node pairs
// with no edge at all.
void ExpectEdgePointRangeMatchesScan(const PointSet& ps, NodeId num_nodes) {
  for (NodeId a = 0; a < num_nodes; ++a) {
    for (NodeId b = 0; b < num_nodes; ++b) {
      if (a == b) continue;
      PointId first = kInvalidPointId;
      uint32_t count = 0;
      for (PointId p = 0; p < ps.size(); ++p) {
        const PointPos pos = ps.position(p);
        if (pos.u != std::min(a, b) || pos.v != std::max(a, b)) continue;
        if (count == 0) first = p;
        EXPECT_EQ(p, first + count) << "edge points not contiguous";
        ++count;
      }
      EXPECT_EQ(ps.EdgePointRange(a, b), std::make_pair(first, count))
          << "edge " << a << "-" << b;
    }
  }
}

// A random placement on one of `edges`; a third of the offsets sit on
// a small grid of values (0, w/2, w, and -0.0) so ties across base and
// batch are common.
Placement RandomPlacement(const std::vector<Edge>& edges, Rng* rng) {
  const Edge& e = edges[rng->NextBounded(edges.size())];
  const bool flip = rng->NextBernoulli(0.5);
  const int label = static_cast<int>(rng->NextBounded(5));
  double offset = rng->NextDouble() * e.weight;
  if (rng->NextBernoulli(0.35)) {
    const double grid[] = {0.0, -0.0, 0.5 * e.weight, e.weight};
    offset = grid[rng->NextBounded(4)];
  }
  return Placement{flip ? e.v : e.u, flip ? e.u : e.v, offset, label};
}

TEST(PointSetMergeTest, RandomMergesEqualOneBuild) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const NodeId n = 4 + static_cast<NodeId>(rng.NextBounded(9));
    Network net(n);
    const double weights[] = {0.75, 1.0, 2.5, 4.0};
    for (int tries = 0; tries < 3 * static_cast<int>(n); ++tries) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a == b || net.HasEdge(a, b)) continue;
      ASSERT_TRUE(net.AddEdge(a, b, weights[rng.NextBounded(4)]).ok());
    }
    if (net.num_edges() == 0) continue;
    const std::vector<Edge> edges = net.Edges();
    std::vector<Placement> base(rng.NextBounded(30));
    for (Placement& p : base) p = RandomPlacement(edges, &rng);
    std::vector<Placement> batch(rng.NextBounded(12));
    for (Placement& p : batch) p = RandomPlacement(edges, &rng);
    ExpectMergeEqualsBuild(net, base, batch);

    PointSet base_set = BuilderOf(base).Build(net).value();
    PointSet merged =
        BuilderOf(batch).Merge(net, base_set, nullptr).value();
    ExpectEdgePointRangeMatchesScan(merged, n);
    if (HasFailure()) return;
  }
}

TEST(PointSetMergeTest, EmptyBaseAndEmptyBatch) {
  Network net = MakePathNetwork(4, 10.0);
  ExpectMergeEqualsBuild(net, {}, {});
  ExpectMergeEqualsBuild(net, {{0, 1, 3.0, 1}, {2, 3, 1.0, 2}}, {});
  ExpectMergeEqualsBuild(net, {}, {{2, 3, 1.0, 2}, {0, 1, 3.0, 1}});

  // A stale description is replaced, not appended to.
  PointSetMerge merge;
  merge.points.Append(7);
  merge.added_order = {7};
  merge.groups.Append(7);
  PointSet empty =
      PointSetBuilder().Merge(net, PointSet(), &merge).value();
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.num_groups(), 0u);
  EXPECT_TRUE(merge.points.empty());
  EXPECT_TRUE(merge.added_order.empty());
  EXPECT_TRUE(merge.groups.empty());
  EXPECT_EQ(empty.EdgePointRange(0, 1).second, 0u);
}

// On equal (edge, offset) the base point goes first — including at the
// edge ends 0 and w, and with a base -0.0 tying a batch 0.0.
TEST(PointSetMergeTest, EqualOffsetsKeepBasePointsFirst) {
  Network net = MakePathNetwork(3, 10.0);
  const std::vector<Placement> base = {
      {0, 1, -0.0, 1}, {0, 1, 5.0, 2}, {1, 0, 5.0, 3}, {0, 1, 10.0, 4}};
  const std::vector<Placement> batch = {
      {0, 1, 10.0, 9}, {1, 0, 0.0, 7}, {0, 1, 5.0, 8}, {1, 2, 0.0, 5}};
  ExpectMergeEqualsBuild(net, base, batch);

  PointSet base_set = BuilderOf(base).Build(net).value();
  PointSet merged =
      BuilderOf(batch).Merge(net, base_set, nullptr).value();
  ASSERT_EQ(merged.size(), 8u);
  const std::vector<int> want_labels = {1, 7, 2, 3, 8, 4, 9, 5};
  EXPECT_EQ(merged.labels(), want_labels);
  EXPECT_TRUE(std::signbit(merged.offset(0)));   // the base's -0.0
  EXPECT_FALSE(std::signbit(merged.offset(1)));  // the batch's 0.0
}

// Batch points on edges before, between and after every base group,
// on edges holding base points and on edges holding none.
TEST(PointSetMergeTest, BatchEdgesAroundEveryBaseGroup) {
  Network net = MakePathNetwork(8, 4.0);  // edges (i, i+1), i = 0..6
  std::vector<Placement> base;
  for (NodeId i : {1u, 3u, 5u}) {
    base.push_back({i, i + 1, 1.0, static_cast<int>(i)});
    base.push_back({i + 1, i, 3.0, static_cast<int>(i)});
  }
  std::vector<Placement> batch;
  for (NodeId i = 7; i-- > 0;) {
    batch.push_back({i, i + 1, 2.0, 10 + static_cast<int>(i)});
  }
  batch.push_back({6, 7, 0.5, 20});
  ExpectMergeEqualsBuild(net, base, batch);

  PointSet base_set = BuilderOf(base).Build(net).value();
  PointSet merged =
      BuilderOf(batch).Merge(net, base_set, nullptr).value();
  ASSERT_EQ(merged.num_groups(), 7u);
  for (size_t g = 0; g < merged.num_groups(); ++g) {
    EXPECT_EQ(merged.group(g).u, static_cast<NodeId>(g));
    EXPECT_EQ(merged.group(g).count, g % 2 == 1 ? 3u : g == 6 ? 2u : 1u);
  }
  ExpectEdgePointRangeMatchesScan(merged, 8);
}

// A bad added point fails the merge with the Status Build returns for
// base plus batch: the first bad point in Add() order decides.
TEST(PointSetMergeTest, BadBatchPointsFailLikeBuild) {
  Network net = MakePathNetwork(4, 10.0);
  const std::vector<Placement> base = {{0, 1, 2.0, 0}, {2, 3, 4.0, 1}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<Placement>> batches = {
      {{0, 2, 1.0, 0}},                   // no such edge
      {{1, 2, 10.5, 0}},                  // beyond the edge weight
      {{1, 2, nan, 0}},                   // NaN offset
      {{1, 2, -0.5, 0}},                  // negative offset
      {{1, 2, 1.0, 0}, {0, 3, 1.0, 0}},   // good, then no such edge
      {{1, 2, 11.0, 0}, {0, 3, 1.0, 0}},  // two bad: the first decides
      {{0, 3, 1.0, 0}, {1, 2, 11.0, 0}},
  };
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    ExpectMergeEqualsBuild(net, base, batches[i]);
    PointSet base_set = BuilderOf(base).Build(net).value();
    EXPECT_TRUE(BuilderOf(batches[i])
                    .Merge(net, base_set, nullptr)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(PointSetMergeTest, BitIdenticalToRejectsEveryDifference) {
  Network net = MakePathNetwork(3, 10.0);
  auto build = [&net](const std::vector<Placement>& ps) {
    return BuilderOf(ps).Build(net).value();
  };
  const std::vector<Placement> ref = {
      {0, 1, 1.0, 0}, {0, 1, 1.0, 0}, {1, 2, 1.0, 0}};
  EXPECT_TRUE(build(ref).BitIdenticalTo(build(ref)));

  std::vector<Placement> ulp = ref;
  ulp[2].offset = std::nextafter(1.0, 2.0);
  EXPECT_FALSE(build(ref).BitIdenticalTo(build(ulp)));

  std::vector<Placement> label = ref;
  label[1].label = 1;
  EXPECT_FALSE(build(ref).BitIdenticalTo(build(label)));

  // Same offsets and labels point by point; only where edge (0, 1)
  // ends and edge (1, 2) begins differs.
  std::vector<Placement> moved = ref;
  moved[1] = {1, 2, 1.0, 0};
  const PointSet a = build(ref);
  const PointSet b = build(moved);
  ASSERT_EQ(a.size(), b.size());
  for (PointId p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a.offset(p), b.offset(p));
    ASSERT_EQ(a.label(p), b.label(p));
  }
  EXPECT_FALSE(a.BitIdenticalTo(b));
  EXPECT_FALSE(b.BitIdenticalTo(a));
}

// ---------------------------------------------------------------------
// Renumbering: one merge's inserts, and the carriers built on it, held
// to a table rebuilt by inserting entry by entry.
// ---------------------------------------------------------------------

// `old_size` old entries (values 100 + q) with inserts at `at` (values
// 1000 + j), built by std::vector::insert one at a time.
std::vector<uint32_t> InsertedOneByOne(size_t old_size,
                                       const std::vector<uint32_t>& at) {
  std::vector<uint32_t> table(old_size);
  for (size_t q = 0; q < old_size; ++q) {
    table[q] = 100 + static_cast<uint32_t>(q);
  }
  for (size_t j = 0; j < at.size(); ++j) {
    table.insert(table.begin() + at[j], 1000 + static_cast<uint32_t>(j));
  }
  return table;
}

TEST(RenumberingTest, CarriersMatchInsertingOneByOne) {
  const size_t old_size = 6;
  // Inserts at the front, side by side, in the middle and at the end,
  // and a batch whose search is deeper than RemapAll unrolls.
  const std::vector<std::vector<uint32_t>> cases = {
      {}, {0}, {6}, {0, 1}, {3, 4, 5}, {0, 4, 8}, {2, 7, 8, 9},
      {0, 1, 2, 4, 6, 8, 10, 12, 14}};
  for (const std::vector<uint32_t>& at : cases) {
    SCOPED_TRACE("inserts " + ::testing::PrintToString(at));
    Renumbering r;
    for (uint32_t a : at) r.Append(a);
    EXPECT_EQ(r.inserted(), at);
    const std::vector<uint32_t> want = InsertedOneByOne(old_size, at);

    // Run copies: every old entry and every insert lands where the
    // one-by-one inserts put them.
    std::vector<uint32_t> runs(old_size + at.size(), 0);
    r.ForEachRun(
        old_size,
        [&](size_t q, size_t f, size_t n) {
          ASSERT_GT(n, 0u);
          for (size_t i = 0; i < n; ++i) {
            runs[f + i] = 100 + static_cast<uint32_t>(q + i);
          }
        },
        [&](size_t j, size_t f) {
          EXPECT_EQ(f, at[j]);
          runs[f] = 1000 + static_cast<uint32_t>(j);
        });
    EXPECT_EQ(runs, want);

    // Remap and RemapAll: each old position moves to where its entry
    // went; the sentinel stays.
    std::vector<uint32_t> stored;
    for (uint32_t q = 0; q < old_size; ++q) {
      EXPECT_EQ(want[r.Remap(q)], 100 + q) << "old position " << q;
      stored.push_back(q);
      stored.push_back(kInvalidPointId);
    }
    std::vector<uint32_t> moved(stored.size());
    r.RemapAll(stored.data(), stored.size(), moved.data(), kInvalidPointId);
    for (size_t i = 0; i < stored.size(); ++i) {
      EXPECT_EQ(moved[i], stored[i] == kInvalidPointId ? kInvalidPointId
                                                       : r.Remap(stored[i]));
    }
    r.RemapAll(stored.data(), stored.size(), stored.data(), kInvalidPointId);
    EXPECT_EQ(stored, moved);  // in place

    // A 1-based numbering whose 0 means "none": 0 stays, q + 1 moves to
    // Remap(q) + 1.
    const Renumbering one_based = r.Shifted(1);
    EXPECT_EQ(one_based.Remap(0), 0u);
    for (uint32_t q = 0; q < old_size; ++q) {
      EXPECT_EQ(one_based.Remap(q + 1), r.Remap(q) + 1);
    }
  }
}

}  // namespace
}  // namespace netclus
