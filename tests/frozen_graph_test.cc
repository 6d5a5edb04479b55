// Tests for the FrozenGraph CSR snapshot (src/graph/frozen_graph.*):
// neighbor-sequence equality with the source view on random networks,
// edge-weight and point-range lookups, the co-owned PointSet and group
// weights (audited by the validator and BitIdenticalTo), the point
// handle WithPoints carries onto merged points and the adjacency
// WithEdges shifts by new edges (each equal to a fresh Materialize for
// every kind of batch), the validator's rejection of a
// corrupted snapshot, identical Dijkstra traversal counters over view
// and snapshot, snapshot ownership across
// Network mutation, the per-algorithm frozen-vs-live bit-identity of
// each graph-generic entry (graph = view vs graph = snapshot), and the
// point kernels (range, accelerated range, node range, k-NN) over the
// snapshot's points against the live view and a full-scan reference —
// including a steady-state allocation count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/optics.h"
#include "core/validate.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/network_distance.h"
#include "graph/network_store.h"
#include "netclus.h"

// Allocation counting for the steady-state test: every global operator
// new bumps the counter while `g_count_allocations` is set. All the
// unaligned forms are replaced together, so each allocation is released
// by its own pair (sanitizer runtimes check that).
namespace {
bool g_count_allocations = false;
size_t g_allocations = 0;

void* CountedMalloc(std::size_t size) noexcept {
  if (g_count_allocations) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// GCC cannot see that these operator news are the malloc behind the free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace netclus {
namespace {

// A generated network + uniform points + in-memory view + snapshot.
struct Scenario {
  GeneratedNetwork gen;
  PointSet points;
  std::optional<InMemoryNetworkView> view;
  FrozenGraph frozen;

  Scenario(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
    view.emplace(gen.net, points);
    frozen = std::move(view->Freeze()).value();
  }
};

// The property the whole refactor rests on: for every node, the CSR row
// replays the view's neighbor iteration exactly — same ids, same
// weights, same order.
void ExpectSameNeighborSequences(const NetworkView& view,
                                 const FrozenGraph& frozen) {
  ASSERT_EQ(frozen.num_nodes(), view.num_nodes());
  size_t half_edges = 0;
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    std::vector<std::pair<NodeId, double>> from_view;
    view.ForEachNeighbor(
        n, [&](NodeId m, double w) { from_view.emplace_back(m, w); });
    std::vector<std::pair<NodeId, double>> from_csr;
    frozen.ForEachNeighbor(
        n, [&](NodeId m, double w) { from_csr.emplace_back(m, w); });
    EXPECT_EQ(from_csr, from_view) << "node " << n;
    EXPECT_EQ(frozen.degree(n), from_view.size()) << "node " << n;
    half_edges += from_view.size();
  }
  EXPECT_EQ(frozen.num_half_edges(), half_edges);
}

TEST(FrozenGraphTest, NeighborSequencesMatchViewOnRandomNetworks) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    Scenario s(150, 200, seed);
    ExpectSameNeighborSequences(*s.view, s.frozen);
    EXPECT_TRUE(s.frozen.has_point_layer());
  }
}

TEST(FrozenGraphTest, EdgeWeightMatchesViewBothDirections) {
  Scenario s(120, 80, 21);
  for (const auto& [u, v, w] : s.gen.net.Edges()) {
    EXPECT_EQ(s.frozen.EdgeWeight(u, v), w);
    EXPECT_EQ(s.frozen.EdgeWeight(v, u), w);
    EXPECT_TRUE(s.frozen.HasEdge(u, v));
  }
  // Absent edges (including out-of-range and self loops) are negative.
  EXPECT_LT(s.frozen.EdgeWeight(0, 0), 0.0);
  EXPECT_FALSE(s.frozen.HasEdge(0, 0));
}

TEST(FrozenGraphTest, EdgePointRangesMatchViewPointGroups) {
  Scenario s(100, 160, 31);
  size_t groups = 0;
  s.view->ForEachPointGroup(
      [&](NodeId u, NodeId v, PointId first, uint32_t count) {
        ++groups;
        EXPECT_EQ(s.frozen.EdgePointRange(u, v),
                  std::make_pair(first, count));
        EXPECT_EQ(s.frozen.EdgePointRange(v, u),
                  std::make_pair(first, count));
      });
  ASSERT_GT(groups, 0u);
  // An edge with no points reports an empty range.
  for (const auto& [u, v, w] : s.gen.net.Edges()) {
    auto [first, count] = s.frozen.EdgePointRange(u, v);
    if (count == 0) {
      EXPECT_EQ(first, kInvalidPointId);
      return;  // found one: done
    }
  }
}

// Disk runs traverse the DiskNetworkView directly while in-memory runs
// traverse the snapshot, so identical disk and memory results rest on
// the disk view yielding each node's neighbors in the snapshot's order.
TEST(FrozenGraphTest, DiskViewMatchesInMemorySnapshot) {
  Scenario s(140, 180, 41);
  auto bundle = std::move(DiskNetworkBundle::Create(
                              s.gen.net, s.points, 64 * 4096, 4096,
                              NodePlacement::kConnectivity, 1)
                              .value());
  ExpectSameNeighborSequences(bundle->view(), s.frozen);
  EXPECT_TRUE(ValidateFrozenGraph(bundle->view(), s.frozen).ok());
  EXPECT_TRUE(bundle->view().status().ok());
}

// `points` rebuilt with point p's offset moved halfway to the next
// offset on its edge (or to the edge's end): the same ids and groups
// with one offset nudged.
std::shared_ptr<const PointSet> NudgeOffset(const Network& net,
                                            const PointSet& points,
                                            PointId p) {
  PointSetBuilder builder;
  for (PointId q = 0; q < points.size(); ++q) {
    const PointPos pos = points.position(q);
    double offset = pos.offset;
    if (q == p) {
      const bool next_on_edge = q + 1 < points.size() &&
                                points.position(q + 1).u == pos.u &&
                                points.position(q + 1).v == pos.v;
      const double bound = next_on_edge ? points.offset(q + 1)
                                        : net.EdgeWeight(pos.u, pos.v);
      offset += 0.5 * (bound - offset);
    }
    builder.Add(pos.u, pos.v, offset, points.label(q));
  }
  return std::make_shared<const PointSet>(
      std::move(std::move(builder).Build(net)).value());
}

TEST(FrozenGraphTest, PointLayerCopiesPointSet) {
  Scenario s(100, 260, 33);
  ASSERT_TRUE(s.frozen.has_point_layer());
  // Freeze() copies the view's PointSet once; the snapshot owns the copy.
  EXPECT_NE(&s.frozen.points(), &s.points);
  EXPECT_TRUE(s.frozen.points().BitIdenticalTo(s.points));
  for (size_t i = 0; i < s.points.num_groups(); ++i) {
    const PointSet::Group& g = s.points.group(i);
    EXPECT_EQ(s.frozen.group_weight(i), s.gen.net.EdgeWeight(g.u, g.v))
        << "group " << i;
  }
  // The point handle's bytes: one group number per slot and one weight
  // per group.
  EXPECT_EQ(s.frozen.own_bytes(),
            s.frozen.num_half_edges() * sizeof(uint32_t) +
                s.points.num_groups() * sizeof(double));
  // The copy outlives the PointSet the view was over.
  FrozenGraph outlives;
  {
    const PointSet copy = s.points;
    outlives =
        std::move(InMemoryNetworkView(s.gen.net, copy).Freeze()).value();
  }
  EXPECT_TRUE(outlives.points().BitIdenticalTo(s.points));
}

TEST(FrozenGraphTest, ValidatorRejectsCorruptedPointOffset) {
  Scenario s(110, 130, 53);
  const PointId p = s.points.size() / 2;
  const FrozenGraph tampered =
      s.frozen.WithPoints(NudgeOffset(s.gen.net, s.points, p), {});
  ASSERT_NE(tampered.points().offset(p), s.points.offset(p));
  Status st = ValidateFrozenGraph(*s.view, tampered);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_NE(st.ToString().find("point " + std::to_string(p)),
            std::string::npos)
      << st.ToString();
}

// The incremental-publish oracle compares snapshots with BitIdenticalTo;
// a snapshot over other points must fail it.
TEST(FrozenGraphTest, BitIdenticalToComparesPointLayer) {
  Scenario s(90, 150, 54);
  const FrozenGraph again = FrozenGraph::Materialize(
      s.gen.net, std::make_shared<const PointSet>(s.points));
  EXPECT_TRUE(again.BitIdenticalTo(s.frozen));
  // Equal points over the shared adjacency rebuild the same ranges and
  // group weights.
  const FrozenGraph shared =
      again.WithPoints(std::make_shared<const PointSet>(s.points), {});
  EXPECT_TRUE(shared.SharesAdjacencyWith(again));
  EXPECT_TRUE(shared.BitIdenticalTo(s.frozen));
  const FrozenGraph tampered =
      again.WithPoints(NudgeOffset(s.gen.net, s.points, 0), {});
  EXPECT_TRUE(tampered.SharesAdjacencyWith(again));
  EXPECT_FALSE(tampered.BitIdenticalTo(s.frozen));
}

// A network whose point groups sit on every other edge in key order,
// from the third edge to the third-last, two points each: there are
// empty edges before the first group, between groups and after the
// last.
struct CarryWorld {
  Network net;
  std::vector<Edge> edges;  // Edges() order: the group key order
  FrozenGraph base;

  explicit CarryWorld(uint64_t seed) {
    net = GenerateRoadNetwork({60, 1.3, 0.3, seed}).net;
    edges = net.Edges();
    PointSetBuilder builder;
    for (size_t i = 2; i + 2 < edges.size(); i += 2) {
      builder.Add(edges[i].u, edges[i].v, 0.25 * edges[i].weight, 0);
      builder.Add(edges[i].u, edges[i].v, 0.75 * edges[i].weight, 0);
    }
    base = FrozenGraph::Materialize(
        net, std::make_shared<const PointSet>(
                 std::move(std::move(builder).Build(net)).value()));
  }
};

// A placement of one point: edge index into Edges() and the fraction of
// its weight from the smaller-id endpoint.
struct Placement {
  size_t edge;
  double at;
};

// `base`'s points with `batch` merged in, the way World merges a
// publish's new points; `merge` receives the renumbering.
std::shared_ptr<const PointSet> MergeBatch(
    const Network& net, const std::vector<Edge>& edges,
    const FrozenGraph& base, const std::vector<Placement>& batch,
    PointSetMerge* merge) {
  PointSetBuilder builder;
  for (const Placement& p : batch) {
    const Edge& e = edges[p.edge];
    builder.Add(e.u, e.v, p.at * e.weight, 1);
  }
  return std::make_shared<const PointSet>(
      std::move(std::move(builder).Merge(net, base.points(), merge)).value());
}

// WithPoints over `base` must be what Materialize builds from scratch,
// share the adjacency, and share the point handle exactly when the batch
// opened no group.
FrozenGraph ExpectCarriedHandle(const Network& net,
                                const std::vector<Edge>& edges,
                                const FrozenGraph& base,
                                const std::vector<Placement>& batch) {
  PointSetMerge merge;
  const std::shared_ptr<const PointSet> points =
      MergeBatch(net, edges, base, batch, &merge);
  const FrozenGraph carried = base.WithPoints(points, merge.groups);
  EXPECT_TRUE(carried.BitIdenticalTo(FrozenGraph::Materialize(net, points)));
  EXPECT_TRUE(carried.SharesAdjacencyWith(base));
  EXPECT_EQ(carried.SharesPointHandleWith(base),
            points->num_groups() == base.points().num_groups());
  return carried;
}

TEST(FrozenGraphTest, CarriedHandleSharedWhenNoGroupOpens) {
  CarryWorld w(71);
  // Points on edges that already hold some: before, between and after
  // the existing points of their groups.
  const FrozenGraph carried = ExpectCarriedHandle(
      w.net, w.edges, w.base, {{2, 0.1}, {4, 0.5}, {6, 0.9}, {4, 0.5}});
  EXPECT_TRUE(carried.SharesPointHandleWith(w.base));
  EXPECT_EQ(carried.points().size(), w.base.points().size() + 4);
}

TEST(FrozenGraphTest, CarriedHandleRenumbersAroundNewGroups) {
  CarryWorld w(72);
  const size_t last = w.edges.size() - 1;
  ASSERT_GE(w.edges.size(), 12u);
  const std::vector<std::pair<const char*, std::vector<Placement>>> cases = {
      {"before the first group", {{0, 0.5}}},
      {"between groups", {{5, 0.5}}},
      {"after the last group", {{last, 0.5}}},
      {"all three at once", {{last, 0.5}, {0, 0.5}, {5, 0.5}}}};
  for (const auto& [where, batch] : cases) {
    SCOPED_TRACE(where);
    const FrozenGraph carried =
        ExpectCarriedHandle(w.net, w.edges, w.base, batch);
    EXPECT_FALSE(carried.SharesPointHandleWith(w.base));
  }
}

TEST(FrozenGraphTest, CarriedHandleOverMultiPointBatches) {
  CarryWorld w(73);
  const size_t last = w.edges.size() - 1;
  // Several points per edge, on old and new edges alike, in no order.
  ExpectCarriedHandle(w.net, w.edges, w.base,
                      {{7, 0.3}, {1, 0.2}, {7, 0.6}, {4, 0.4}, {1, 0.8},
                       {last, 0.1}, {3, 0.5}, {last, 0.9}, {2, 0.5}});
  // A batch that opens a group on every empty edge.
  std::vector<Placement> everywhere;
  for (size_t i = 0; i < w.edges.size(); ++i) everywhere.push_back({i, 0.5});
  ExpectCarriedHandle(w.net, w.edges, w.base, everywhere);
}

TEST(FrozenGraphTest, CarriedHandleWithPointsAtEdgeEnds) {
  CarryWorld w(74);
  const size_t last = w.edges.size() - 1;
  // Offsets 0 and w exactly, on a new edge and on an old one (ties with
  // nothing: the old points sit at a quarter and three quarters).
  ExpectCarriedHandle(w.net, w.edges, w.base,
                      {{3, 0.0}, {3, 1.0}, {2, 0.0}, {2, 1.0}, {last, 1.0}});
}

// Two points-only epochs carry the handle; an AddEdge epoch rebuilds it
// with the adjacency, and the next points-only epoch carries from that.
TEST(FrozenGraphTest, CarriedHandleAcrossAnAddEdgeEpoch) {
  CarryWorld w(75);
  const FrozenGraph first =
      ExpectCarriedHandle(w.net, w.edges, w.base, {{4, 0.6}});
  EXPECT_TRUE(first.SharesPointHandleWith(w.base));
  const FrozenGraph second =
      ExpectCarriedHandle(w.net, w.edges, first, {{1, 0.4}, {9, 0.3}});
  EXPECT_FALSE(second.SharesPointHandleWith(first));

  NodeId v = 1;
  while (w.net.HasEdge(0, v)) ++v;
  ASSERT_TRUE(w.net.AddEdge(0, v, 2.0).ok());
  const std::vector<Edge> edges = w.net.Edges();
  const FrozenGraph with_edge = FrozenGraph::Materialize(
      w.net, std::make_shared<const PointSet>(second.points()));
  EXPECT_FALSE(with_edge.SharesAdjacencyWith(second));
  size_t added = 0;
  while (edges[added].u != 0 || edges[added].v != v) ++added;
  ExpectCarriedHandle(w.net, edges, with_edge, {{added, 0.5}, {4, 0.1}});
}

// A node not adjacent to `u` (nor `u` itself), searching up from
// `from`.
NodeId FreeNeighbor(const Network& net, NodeId u, NodeId from = 0) {
  NodeId v = from;
  while (v == u || net.HasEdge(u, v)) ++v;
  return v;
}

// Applies `added` to `net` in order and expects WithEdges over `base`
// (a snapshot of `net` before them) to be what Materialize builds from
// the grown network over the same points: a new adjacency with no
// landmark tables.
FrozenGraph ExpectCarriedEdges(Network* net, const FrozenGraph& base,
                               const std::vector<Edge>& added) {
  for (const Edge& e : added) {
    EXPECT_TRUE(net->AddEdge(e.u, e.v, e.weight).ok());
  }
  const FrozenGraph carried = base.WithEdges(added);
  EXPECT_TRUE(carried.BitIdenticalTo(FrozenGraph::Materialize(
      *net, std::make_shared<const PointSet>(base.points()))));
  EXPECT_FALSE(carried.SharesAdjacencyWith(base));
  EXPECT_EQ(carried.landmarks(), nullptr);
  EXPECT_EQ(carried.num_half_edges(), base.num_half_edges() + 2 * added.size());
  return carried;
}

TEST(FrozenGraphTest, CarriedEdgesOnTheFirstAndLastNode) {
  CarryWorld w(81);
  const NodeId last = w.net.num_nodes() - 1;
  // The first row, the last row, and one edge joining both.
  ExpectCarriedEdges(&w.net, w.base,
                     {{0, FreeNeighbor(w.net, 0, 1), 1.5},
                      {last, FreeNeighbor(w.net, last, 1), 2.5}});
  CarryWorld again(81);
  if (!again.net.HasEdge(0, last)) {
    ExpectCarriedEdges(&again.net, again.base, {{0, last, 3.0}});
  }
}

TEST(FrozenGraphTest, CarriedEdgesWithTheLargerEndpointFirst) {
  CarryWorld w(82);
  const NodeId u = 40;
  const NodeId v = FreeNeighbor(w.net, u, 3);
  ASSERT_GT(u, v);
  ExpectCarriedEdges(&w.net, w.base, {{u, v, 0.75}});
}

TEST(FrozenGraphTest, CarriedEdgesSharingAnEndpointInOneBatch) {
  CarryWorld w(83);
  const NodeId hub = 17;
  const NodeId a = FreeNeighbor(w.net, hub, 0);
  const NodeId b = FreeNeighbor(w.net, hub, a + 1);
  const NodeId c = FreeNeighbor(w.net, hub, b + 1);
  // The hub's row gains three slots, in this order; a later edge on a
  // row before the hub's shifts it once more.
  ExpectCarriedEdges(&w.net, w.base,
                     {{hub, b, 1.0},
                      {a, hub, 2.0},
                      {hub, c, 3.0},
                      {1, FreeNeighbor(w.net, 1, 2), 4.0}});
}

// An edge and a point on it in one batch: the shifted snapshot, then the
// merged points, equal a Materialize of both.
TEST(FrozenGraphTest, CarriedEdgesWithAPointOnTheNewEdge) {
  CarryWorld w(84);
  const NodeId u = 9;
  const NodeId v = FreeNeighbor(w.net, u, 20);
  const std::vector<Edge> added = {{u, v, 2.0}};
  const FrozenGraph shifted = ExpectCarriedEdges(&w.net, w.base, added);
  PointSetBuilder builder;
  builder.Add(u, v, 0.5, 1);
  builder.Add(w.edges[4].u, w.edges[4].v, 0.5 * w.edges[4].weight, 1);
  PointSetMerge merge;
  const auto points = std::make_shared<const PointSet>(
      std::move(std::move(builder).Merge(w.net, w.base.points(), &merge))
          .value());
  const FrozenGraph carried = shifted.WithPoints(points, merge.groups);
  EXPECT_TRUE(carried.BitIdenticalTo(FrozenGraph::Materialize(w.net, points)));
  EXPECT_EQ(carried.EdgePointRange(v, u).second, 1u);
}

// New slots on rows whose old slots hold point groups: the groups keep
// their slots, shifted with the rows after them.
TEST(FrozenGraphTest, CarriedEdgesOntoRowsWithPointGroups) {
  CarryWorld w(85);
  const Edge& held = w.edges[2];  // the first group's edge
  ASSERT_GT(w.base.EdgePointRange(held.u, held.v).second, 0u);
  const FrozenGraph carried = ExpectCarriedEdges(
      &w.net, w.base,
      {{held.u, FreeNeighbor(w.net, held.u), 1.25},
       {held.v, FreeNeighbor(w.net, held.v), 1.75}});
  for (size_t g = 0; g < w.base.points().num_groups(); ++g) {
    const PointSet::Group& grp = w.base.points().group(g);
    EXPECT_EQ(carried.EdgePointRange(grp.u, grp.v).first, grp.first);
  }
}

// A points-only epoch (a carried handle), then an AddEdge onto it.
TEST(FrozenGraphTest, CarriedEdgesAfterAPointsOnlyEpoch) {
  CarryWorld w(86);
  const FrozenGraph points_only =
      ExpectCarriedHandle(w.net, w.edges, w.base, {{1, 0.4}, {9, 0.3}});
  const FrozenGraph shifted = ExpectCarriedEdges(
      &w.net, points_only, {{5, FreeNeighbor(w.net, 5), 0.9}});
  EXPECT_TRUE(shifted.points().BitIdenticalTo(points_only.points()));
}

TEST(FrozenGraphTest, ValidatorAcceptsFaithfulSnapshot) {
  Scenario s(110, 130, 51);
  EXPECT_TRUE(ValidateFrozenGraph(*s.view, s.frozen).ok());
}

TEST(FrozenGraphTest, ValidatorRejectsCorruptedWeight) {
  Scenario s(110, 130, 52);
  ASSERT_GT(s.frozen.num_half_edges(), 0u);
  s.frozen.CorruptHalfEdgeForTest(s.frozen.num_half_edges() / 2, 0, -3.5);
  Status st = ValidateFrozenGraph(*s.view, s.frozen);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST(FrozenGraphTest, NetworkEdgeWeightSurvivesMutation) {
  // Network::EdgeWeight reads the live adjacency, so a lookup never
  // goes stale across AddEdge.
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.5).ok());
  EXPECT_EQ(net.EdgeWeight(0, 1), 1.5);
  ASSERT_TRUE(net.AddEdge(1, 2, 2.5).ok());
  EXPECT_EQ(net.EdgeWeight(1, 2), 2.5);
  EXPECT_EQ(net.EdgeWeight(0, 1), 1.5);
  EXPECT_LT(net.EdgeWeight(0, 2), 0.0);
}

// Multi-source SSSP over the snapshot settles the same nodes in the
// same order with the same heap traffic as over the live view.
TEST(FrozenGraphTest, DijkstraCountersIdenticalOverViewAndSnapshot) {
  Scenario s(200, 100, 61);
  std::vector<DijkstraSource> sources = {DijkstraSource{0, 0.0},
                                         DijkstraSource{5, 1.25}};
  TraversalWorkspace ws(s.view->num_nodes());

  TraversalCounters before_view = LocalTraversalCounters();
  DijkstraDistances(*s.view, sources, &ws);
  TraversalCounters view_delta = LocalTraversalCounters() - before_view;
  std::vector<double> view_dist(s.view->num_nodes());
  for (NodeId n = 0; n < s.view->num_nodes(); ++n) {
    view_dist[n] = ws.scratch.Get(n);
  }

  TraversalCounters before_frozen = LocalTraversalCounters();
  DijkstraDistances(s.frozen, sources, &ws);
  TraversalCounters frozen_delta = LocalTraversalCounters() - before_frozen;

  EXPECT_EQ(frozen_delta.settled_nodes, view_delta.settled_nodes);
  EXPECT_EQ(frozen_delta.heap_pushes, view_delta.heap_pushes);
  EXPECT_EQ(frozen_delta.heap_pops, view_delta.heap_pops);
  for (NodeId n = 0; n < s.view->num_nodes(); ++n) {
    EXPECT_EQ(ws.scratch.Get(n), view_dist[n]) << "node " << n;
  }
}

// Each graph-generic entry run with graph = the view and graph = its
// snapshot: identical results, bit for bit.
class FrozenRunFixture : public ::testing::Test {
 protected:
  void SetUp() override { s_.emplace(90, 140, 71); }
  const NetworkView& view() const { return *s_->view; }
  std::optional<Scenario> s_;
};

TEST_F(FrozenRunFixture, KMedoidsFrozenIdentical) {
  KMedoidsOptions options;
  options.k = 5;
  options.seed = 72;
  Result<KMedoidsResult> live =
      KMedoidsCluster(view(), view(), options);
  Result<KMedoidsResult> frozen =
      KMedoidsCluster(view(), s_->frozen, options);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().clustering.assignment,
            live.value().clustering.assignment);
  EXPECT_EQ(frozen.value().medoids, live.value().medoids);
  EXPECT_EQ(frozen.value().cost, live.value().cost);
}

TEST_F(FrozenRunFixture, EpsLinkFrozenIdentical) {
  EpsLinkOptions options;
  options.eps = 3.0;
  options.min_sup = 3;
  Result<Clustering> live = EpsLinkCluster(view(), view(), options);
  Result<Clustering> frozen = EpsLinkCluster(view(), s_->frozen, options);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().assignment, live.value().assignment);
  EXPECT_EQ(frozen.value().num_clusters, live.value().num_clusters);
}

TEST_F(FrozenRunFixture, SingleLinkFrozenIdentical) {
  SingleLinkOptions options;
  options.delta = 1.0;
  Result<SingleLinkResult> live = SingleLinkCluster(view(), view(), options);
  Result<SingleLinkResult> frozen =
      SingleLinkCluster(view(), s_->frozen, options);
  ASSERT_TRUE(live.ok() && frozen.ok());
  const auto& lm = live.value().dendrogram.merges();
  const auto& fm = frozen.value().dendrogram.merges();
  ASSERT_EQ(fm.size(), lm.size());
  for (size_t i = 0; i < lm.size(); ++i) {
    EXPECT_EQ(fm[i].a, lm[i].a);
    EXPECT_EQ(fm[i].b, lm[i].b);
    EXPECT_EQ(fm[i].distance, lm[i].distance);
  }
}

TEST_F(FrozenRunFixture, DbscanFrozenIdenticalSerialAndParallel) {
  DbscanOptions options;
  options.eps = 3.0;
  options.min_pts = 3;
  for (uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    Result<Clustering> live = DbscanCluster(view(), view(), options);
    Result<Clustering> frozen = DbscanCluster(view(), s_->frozen, options);
    ASSERT_TRUE(live.ok() && frozen.ok());
    EXPECT_EQ(frozen.value().assignment, live.value().assignment)
        << "threads = " << threads;
  }
}

TEST_F(FrozenRunFixture, OpticsIdentical) {
  OpticsOptions options;
  options.eps = 3.0;
  options.min_pts = 3;
  Result<OpticsResult> live = OpticsOrder(view(), view(), options);
  Result<OpticsResult> frozen = OpticsOrder(view(), s_->frozen, options);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().order, live.value().order);
  EXPECT_EQ(frozen.value().reachability, live.value().reachability);
  EXPECT_EQ(frozen.value().core_distance, live.value().core_distance);
}

// RunClustering freezes internally; with validation on, every algorithm
// passes ValidateFrozenGraph plus its own output audit end to end.
TEST_F(FrozenRunFixture, RunClusteringValidatesSnapshotForAllAlgorithms) {
  for (Algorithm a : {Algorithm::kKMedoids, Algorithm::kEpsLink,
                      Algorithm::kSingleLink, Algorithm::kDbscan}) {
    ClusterSpec spec;
    spec.algorithm = a;
    spec.validate = true;
    spec.kmedoids.k = 4;
    spec.kmedoids.seed = 73;
    spec.eps_link.eps = 3.0;
    spec.dbscan.eps = 3.0;
    spec.single_link.delta = 1.0;
    spec.cut_distance = 3.0;
    Result<ClusterOutput> out = RunClustering(*s_->view, spec);
    EXPECT_TRUE(out.ok()) << AlgorithmName(a) << ": "
                          << out.status().ToString();
  }
}

// ---------------------------------------------------------------------
// Point kernels over the snapshot's points vs the live view.

// The range-query semantics spelled out point by point: exact distances
// from `sources` to every node, then every point of the network tested
// with the kernel's distance expression. Ascending id order.
std::vector<RangeResult> FullScanRange(const NetworkView& view,
                                       const std::vector<DijkstraSource>& src,
                                       const PointPos* center, double eps) {
  TraversalWorkspace ws(view.num_nodes());
  DijkstraDistances(view, src, &ws);
  std::vector<RangeResult> out;
  for (PointId p = 0; p < view.num_points(); ++p) {
    PointPos pos = view.PointPosition(p);
    double w = view.EdgeWeight(pos.u, pos.v);
    double d = std::min(ws.scratch.Get(pos.u) + pos.offset,
                        ws.scratch.Get(pos.v) + (w - pos.offset));
    if (center != nullptr && center->u == pos.u && center->v == pos.v) {
      d = std::min(d, std::fabs(pos.offset - center->offset));
    }
    if (d <= eps) out.push_back(RangeResult{p, d});
  }
  return out;
}

std::vector<RangeResult> SortedById(std::vector<RangeResult> v) {
  std::sort(v.begin(), v.end(),
            [](const RangeResult& a, const RangeResult& b) {
              return a.id < b.id;
            });
  return v;
}

// One world, two substrates' worth of kernels: the live view and the
// snapshot over its PointSet. Every kernel must emit the identical
// (id, dist) sequence — same order, distances compared bitwise — and
// match the full-scan reference.
void ExpectKernelsMatchLiveView(const Network& net, const PointSet& points,
                                const std::vector<double>& radii,
                                PointId center_stride) {
  InMemoryNetworkView mem(net, points);
  const NetworkView& view = mem;
  FrozenGraph frozen = std::move(mem.Freeze()).value();
  ASSERT_TRUE(frozen.has_point_layer());

  TraversalWorkspace ws(view.num_nodes());
  std::vector<RangeResult> live, fast;
  size_t emitted = 0;
  for (PointId p = 0; p < points.size(); p += center_stride) {
    const PointPos c = points.position(p);
    const double wc = net.EdgeWeight(c.u, c.v);
    for (double eps : radii) {
      SCOPED_TRACE("center " + std::to_string(p) + " eps " +
                   std::to_string(eps));
      RangeQuery(view, view, p, eps, &ws, &live);
      RangeQuery(view, frozen, p, eps, &ws, &fast);
      EXPECT_EQ(fast, live);
      EXPECT_EQ(SortedById(fast),
                FullScanRange(view, {{c.u, c.offset}, {c.v, wc - c.offset}},
                              &c, eps));
      emitted += fast.size();

      // Node-sourced, from either endpoint of the center's edge.
      for (NodeId n : {c.u, c.v}) {
        NodeRangeQuery(view, frozen, n, eps, &ws, &fast);
        EXPECT_EQ(SortedById(fast),
                  FullScanRange(view, {{n, 0.0}}, nullptr, eps));
      }
    }
    for (uint32_t k : {1u, 3u, 10u}) {
      KNearestNeighbors(view, view, p, k, &ws, &live);
      KNearestNeighbors(view, frozen, p, k, &ws, &fast);
      EXPECT_EQ(fast, live) << "center " << p << " k " << k;
    }
  }
  EXPECT_GT(emitted, 0u);
}

// A grid with weights in {1, 2, 3}: equal-length paths everywhere, so
// settle order is decided by distance ties. Points sit at half-integer
// offsets with duplicates, and at both ends of edges (offset 0 and
// offset w), so integer radii put points exactly at eps.
struct TieWorld {
  Network net;
  PointSet points;
};

TieWorld MakeTieWorld(uint64_t seed) {
  const NodeId side = 6;
  TieWorld w{Network(side * side), PointSet()};
  Rng rng(seed);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId n = r * side + c;
      if (c + 1 < side) {
        EXPECT_TRUE(w.net.AddEdge(n, n + 1, 1.0 + rng.NextBounded(3)).ok());
      }
      if (r + 1 < side) {
        EXPECT_TRUE(
            w.net.AddEdge(n, n + side, 1.0 + rng.NextBounded(3)).ok());
      }
    }
  }
  PointSetBuilder b;
  for (const Edge& e : w.net.Edges()) {
    if (rng.NextBounded(4) == 0) continue;  // some edges hold no points
    const uint64_t halves = static_cast<uint64_t>(2.0 * e.weight);
    const uint64_t count = 1 + rng.NextBounded(6);
    for (uint64_t i = 0; i < count; ++i) {
      b.Add(e.u, e.v, 0.5 * static_cast<double>(rng.NextBounded(halves + 1)),
            -1);
    }
    if (rng.NextBounded(3) == 0) b.Add(e.u, e.v, 0.0, -1);
    if (rng.NextBounded(3) == 0) b.Add(e.u, e.v, e.weight, -1);
  }
  w.points = std::move(std::move(b).Build(w.net)).value();
  return w;
}

TEST(FrozenKernelTest, MatchesLiveViewOnIntegerWeightsWithTies) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TieWorld w = MakeTieWorld(seed);
    ExpectKernelsMatchLiveView(w.net, w.points, {0.5, 1.0, 2.0, 3.0, 5.0},
                               1);
  }
}

// Centers at offset 0 and offset w, duplicate offsets, points exactly
// at eps along the center's own edge and across the node.
TEST(FrozenKernelTest, MatchesLiveViewAtEdgeEndsAndDuplicates) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 4.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 2.0).ok());
  PointSetBuilder b;
  for (double off : {0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0}) b.Add(0, 1, off, -1);
  for (double off : {0.0, 1.0, 2.0, 2.0}) b.Add(1, 2, off, -1);
  PointSet points = std::move(std::move(b).Build(net)).value();
  ExpectKernelsMatchLiveView(net, points, {0.5, 1.0, 2.0, 3.0, 4.0, 6.0}, 1);
}

// The paper's clustered workload, dense enough that point-bearing edges
// hold dozens of points each — the case the windowed scan is for.
TEST(FrozenKernelTest, MatchesLiveViewOnDenseClusteredEdges) {
  GeneratedNetwork gen = GenerateRoadNetwork({60, 1.3, 0.3, 81});
  double total_weight = 0.0;
  for (const Edge& e : gen.net.Edges()) total_weight += e.weight;
  ClusterWorkloadSpec spec;
  spec.total_points = 1500;
  spec.num_clusters = 3;
  spec.s_init = 0.06 * total_weight / (3.0 * spec.total_points);
  spec.seed = 82;
  GeneratedWorkload wl =
      std::move(GenerateClusteredPoints(gen.net, spec)).value();
  size_t max_count = 0;
  for (size_t i = 0; i < wl.points.num_groups(); ++i) {
    max_count = std::max<size_t>(max_count, wl.points.group(i).count);
  }
  ASSERT_GE(wl.points.size() / wl.points.num_groups(), 12u);
  ASSERT_GE(max_count, 48u);
  const double gap = wl.max_intra_gap;
  ExpectKernelsMatchLiveView(gen.net, wl.points, {gap, 3.0 * gap, 10.0 * gap},
                             37);
}

// Once the workspace and the output vector have grown to the largest
// region seen, a range query over a snapshot allocates nothing.
TEST(FrozenKernelTest, RangeQuerySteadyStateAllocatesNothing) {
  Scenario s(200, 600, 91);
  ASSERT_TRUE(s.frozen.has_point_layer());
  TraversalWorkspace ws(s.view->num_nodes());
  std::vector<RangeResult> out;
  const double eps = 2.5;
  auto run_all = [&] {
    size_t emitted = 0;
    for (PointId p = 0; p < s.points.size(); ++p) {
      RangeQuery(*s.view, s.frozen, p, eps, &ws, &out);
      emitted += out.size();
      NodeRangeQuery(*s.view, s.frozen, s.points.position(p).u, eps, &ws,
                     &out);
      emitted += out.size();
    }
    return emitted;
  };
  const size_t warm = run_all();  // grows every buffer to its peak
  g_allocations = 0;
  g_count_allocations = true;
  const size_t steady = run_all();
  g_count_allocations = false;
  EXPECT_EQ(steady, warm);
  EXPECT_GT(steady, 0u);
  EXPECT_EQ(g_allocations, 0u);
}

}  // namespace
}  // namespace netclus
