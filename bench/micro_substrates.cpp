// Ablation A4: google-benchmark micro-benchmarks of the substrates the
// clustering algorithms are built on — Dijkstra traversals, point
// distance evaluation, range queries, B+-tree lookups, and the buffer
// manager hit path. The k-medoids micro-benchmark times the engine
// directly over the live view with a prebuilt landmark index; routing
// through RunClustering would rebuild the index inside the measured loop.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/random.h"
#include "core/kmedoids.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_distance.h"
#include "graph/network_store.h"
#include "index/distance_index.h"
#include "storage/bptree.h"

namespace netclus {
namespace {

struct Fixture {
  GeneratedNetwork gen;
  PointSet points;
  std::unique_ptr<InMemoryNetworkView> view;

  explicit Fixture(NodeId nodes, PointId n_points) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, 99});
    points = std::move(GenerateUniformPoints(gen.net, n_points, 100)).value();
    view = std::make_unique<InMemoryNetworkView>(gen.net, points);
  }
};

Fixture& SharedFixture() {
  static Fixture f(20000, 60000);
  return f;
}

// A sparser fixture (~0.25 points per node) for the indexed-vs-plain
// k-medoids comparison.
Fixture& SparseFixture() {
  static Fixture f(8000, 2000);
  return f;
}

const DistanceIndex& SparseIndex() {
  static std::unique_ptr<DistanceIndex> index = [] {
    IndexOptions io;
    io.enable = true;
    io.num_landmarks = 8;
    return std::move(
        DistanceIndex::Build(*SparseFixture().view, io, nullptr).value());
  }();
  return *index;
}

// Exports the settled-node / heap-pop deltas of the benchmark's whole
// run as per-iteration google-benchmark counters, so `index on` rows are
// directly comparable to their `index off` twins.
struct CounterScope {
  benchmark::State& state;
  TraversalCounters before;
  explicit CounterScope(benchmark::State& s)
      : state(s), before(LocalTraversalCounters()) {}
  ~CounterScope() {
    TraversalCounters d = LocalTraversalCounters() - before;
    auto rate = benchmark::Counter::kAvgIterations;
    state.counters["settled"] = benchmark::Counter(
        static_cast<double>(d.settled_nodes), rate);
    state.counters["heap_pops"] = benchmark::Counter(
        static_cast<double>(d.heap_pops), rate);
  }
};

void BM_DijkstraFullSSSP(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const NetworkView& view = *f.view;
  TraversalWorkspace ws(f.gen.net.num_nodes());
  NodeId src = 0;
  for (auto _ : state) {
    DijkstraDistances(view, {{src, 0.0}}, &ws);
    benchmark::DoNotOptimize(ws.scratch.Get(0));
    src = (src + 7919) % f.gen.net.num_nodes();
  }
  state.SetItemsProcessed(state.iterations() * f.gen.net.num_nodes());
}
BENCHMARK(BM_DijkstraFullSSSP)->Unit(benchmark::kMillisecond);

void BM_PointNetworkDistance(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const NetworkView& view = *f.view;
  TraversalWorkspace ws(f.gen.net.num_nodes());
  Rng rng(5);
  for (auto _ : state) {
    PointId p = static_cast<PointId>(rng.NextBounded(f.points.size()));
    PointId q = static_cast<PointId>(rng.NextBounded(f.points.size()));
    benchmark::DoNotOptimize(PointNetworkDistance(view, view, p, q, &ws));
  }
}
BENCHMARK(BM_PointNetworkDistance)->Unit(benchmark::kMicrosecond);

void BM_RangeQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const NetworkView& view = *f.view;
  TraversalWorkspace ws(f.gen.net.num_nodes());
  std::vector<RangeResult> out;
  Rng rng(6);
  double eps = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    PointId p = static_cast<PointId>(rng.NextBounded(f.points.size()));
    RangeQuery(view, view, p, eps, &ws, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RangeQuery)->Arg(5)->Arg(20)->Arg(50)->Unit(
    benchmark::kMicrosecond);

// Full k-medoids runs on the sparse fixture, index off (arg 0) vs on
// (arg 1): identical trajectories and results, with ALT lower bounds
// pruning provably non-improving swap evaluations in the `on` rows.
void BM_KMedoidsSwapEval(benchmark::State& state) {
  Fixture& f = SparseFixture();
  const LandmarkOracle* landmarks =
      state.range(0) != 0 ? &SparseIndex().landmarks() : nullptr;
  KMedoidsOptions ko;
  ko.k = 8;
  ko.seed = 11;
  CounterScope counters(state);
  uint32_t pruned = 0;
  for (auto _ : state) {
    KMedoidsResult r = std::move(
        KMedoidsCluster<NetworkView>(*f.view, *f.view, ko, landmarks).value());
    pruned = r.stats.pruned_swaps;
    benchmark::DoNotOptimize(r.cost);
  }
  state.counters["pruned_swaps"] = pruned;
}
BENCHMARK(BM_KMedoidsSwapEval)
    ->ArgNames({"index"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_BPlusTreeLookup(benchmark::State& state) {
  static auto file = PagedFile::CreateInMemory(4096);
  static BufferManager bm(1 << 22, 4096);
  static std::unique_ptr<BPlusTree> tree = [] {
    FileId fid = bm.RegisterFile(file.get());
    auto t = std::move(BPlusTree::Create(&bm, fid).value());
    std::vector<std::pair<uint64_t, uint64_t>> data;
    for (uint64_t i = 0; i < 100000; ++i) data.emplace_back(i * 3, i);
    (void)t->BulkLoad(data);
    return t;
  }();
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Get(rng.NextBounded(300000)));
  }
}
BENCHMARK(BM_BPlusTreeLookup);

void BM_BufferManagerHit(benchmark::State& state) {
  static auto file = PagedFile::CreateInMemory(4096);
  static BufferManager bm(1 << 20, 4096);
  static FileId fid = [] {
    FileId f = bm.RegisterFile(file.get());
    for (int i = 0; i < 64; ++i) (void)bm.NewPage(f);
    return f;
  }();
  Rng rng(9);
  for (auto _ : state) {
    Result<PageHandle> h = bm.FetchPage(fid, rng.NextBounded(64));
    benchmark::DoNotOptimize(h.value().data());
  }
}
BENCHMARK(BM_BufferManagerHit);

void BM_DiskAdjacencyRead(benchmark::State& state) {
  Fixture& f = SharedFixture();
  static auto bundle = std::move(
      DiskNetworkBundle::Create(SharedFixture().gen.net,
                                SharedFixture().points, 1 << 20, 4096,
                                NodePlacement::kConnectivity, 1)
          .value());
  Rng rng(10);
  for (auto _ : state) {
    NodeId n = static_cast<NodeId>(rng.NextBounded(f.gen.net.num_nodes()));
    double sum = 0.0;
    bundle->view().ForEachNeighbor(n, [&](NodeId, double w) { sum += w; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DiskAdjacencyRead);

void BM_WorkloadGeneration(benchmark::State& state) {
  Fixture& f = SharedFixture();
  uint64_t seed = 1;
  for (auto _ : state) {
    ClusterWorkloadSpec spec;
    spec.total_points = 20000;
    spec.num_clusters = 10;
    spec.s_init = 0.02;
    spec.seed = seed++;
    benchmark::DoNotOptimize(
        GenerateClusteredPoints(f.gen.net, spec).value().points.size());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace netclus

BENCHMARK_MAIN();
