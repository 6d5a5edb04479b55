// Tests for the FrozenGraph CSR snapshot (src/graph/frozen_graph.*):
// neighbor-sequence equality with the source view on random networks,
// edge-weight and point-range lookups, the point layer (a faithful copy
// of the PointSet, audited by the validator and BitIdenticalTo), the
// validator's rejection of a corrupted snapshot, identical Dijkstra
// traversal counters over view and snapshot, snapshot ownership across
// Network mutation, the per-algorithm frozen-vs-live bit-identity of
// each graph-generic entry (graph = view vs graph = snapshot), and the
// point kernels (range, accelerated range, node range, k-NN) over the
// point layer against the live view and a full-scan reference —
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

TEST(FrozenGraphTest, PointLayerCopiesPointSet) {
  Scenario s(100, 260, 33);
  ASSERT_TRUE(s.frozen.has_point_layer());
  const std::vector<double>& offsets = s.frozen.point_offsets();
  ASSERT_EQ(offsets.size(), s.points.size());
  for (PointId p = 0; p < s.points.size(); ++p) {
    EXPECT_EQ(offsets[p], s.points.offset(p)) << "point " << p;
  }
  const std::vector<FrozenGraph::PointGroup>& groups =
      s.frozen.point_groups();
  ASSERT_EQ(groups.size(), s.points.num_groups());
  for (size_t i = 0; i < groups.size(); ++i) {
    const PointSet::Group& g = s.points.group(i);
    EXPECT_EQ(groups[i].u, g.u);
    EXPECT_EQ(groups[i].v, g.v);
    EXPECT_EQ(groups[i].first, g.first);
    EXPECT_EQ(groups[i].count, g.count);
    EXPECT_EQ(groups[i].weight, s.gen.net.EdgeWeight(g.u, g.v));
  }
  EXPECT_EQ(s.frozen.point_layer_bytes(),
            offsets.size() * sizeof(double) +
                groups.size() * sizeof(FrozenGraph::PointGroup));
}

TEST(FrozenGraphTest, ValidatorRejectsCorruptedPointOffset) {
  Scenario s(110, 130, 53);
  ASSERT_TRUE(s.frozen.has_point_layer());
  const PointId p = s.points.size() / 2;
  s.frozen.CorruptPointOffsetForTest(p, s.points.offset(p) + 0.125);
  Status st = ValidateFrozenGraph(*s.view, s.frozen);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
  EXPECT_NE(st.ToString().find("point " + std::to_string(p)),
            std::string::npos)
      << st.ToString();
}

// The incremental-publish oracle compares snapshots with BitIdenticalTo;
// a mis-copied point layer must fail it.
TEST(FrozenGraphTest, BitIdenticalToComparesPointLayer) {
  Scenario s(90, 150, 54);
  FrozenGraph again = FrozenGraph::Materialize(*s.view);
  EXPECT_TRUE(again.BitIdenticalTo(s.frozen));
  // An all-clean incremental rebuild re-copies the layer identically.
  std::vector<char> clean(s.view->num_nodes(), 0);
  EXPECT_TRUE(FrozenGraph::MaterializeIncremental(*s.view, s.frozen, clean)
                  .BitIdenticalTo(s.frozen));
  again.CorruptPointOffsetForTest(0, s.points.offset(0) + 1.0);
  EXPECT_FALSE(again.BitIdenticalTo(s.frozen));
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
// Point kernels over the point layer vs the live view.

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
// snapshot with its point layer. Every kernel must emit the identical
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
// region seen, a range query over a snapshot with a point layer
// allocates nothing.
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
