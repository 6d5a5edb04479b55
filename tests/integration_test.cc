// Integration tests: full pipelines over generated workloads, and the
// guarantee that the disk-backed storage architecture yields results
// identical to in-memory execution for every algorithm.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbscan.h"
#include "core/eps_link.h"
#include "core/interesting_levels.h"
#include "core/kmedoids.h"
#include "core/optics.h"
#include "core/single_link.h"
#include "eval/evaluation.h"
#include "eval/metrics.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/frozen_graph.h"
#include "graph/network_distance.h"
#include "graph/network_store.h"
#include "run_helpers.h"

namespace netclus {
namespace {

struct Pipeline {
  GeneratedNetwork gen;
  GeneratedWorkload workload;
  std::unique_ptr<InMemoryNetworkView> mem_view;
  std::unique_ptr<DiskNetworkBundle> disk;
};

Pipeline MakePipeline(NodeId nodes, PointId points, uint32_t k,
                      uint64_t seed, double s_init = 0.02) {
  Pipeline p;
  p.gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
  ClusterWorkloadSpec spec;
  spec.total_points = points;
  spec.num_clusters = k;
  spec.outlier_fraction = 0.01;
  spec.s_init = s_init;
  spec.seed = seed + 1;
  p.workload = std::move(GenerateClusteredPoints(p.gen.net, spec).value());
  p.mem_view =
      std::make_unique<InMemoryNetworkView>(p.gen.net, p.workload.points);
  p.disk = std::move(DiskNetworkBundle::Create(p.gen.net, p.workload.points,
                                               1 << 20, 4096,
                                               NodePlacement::kConnectivity,
                                               seed)
                         .value());
  return p;
}

TEST(IntegrationTest, DiskAndMemoryKMedoidsIdentical) {
  Pipeline p = MakePipeline(400, 1200, 4, 1001);
  KMedoidsOptions opts;
  opts.k = 4;
  opts.seed = 5;
  opts.max_unsuccessful_swaps = 5;
  Result<KMedoidsResult> mem = RunKMedoids(*p.mem_view, opts);
  Result<KMedoidsResult> disk = RunKMedoids(p.disk->view(), opts);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(mem.value().medoids, disk.value().medoids);
  EXPECT_NEAR(mem.value().cost, disk.value().cost, 1e-9);
  EXPECT_EQ(mem.value().clustering.assignment,
            disk.value().clustering.assignment);
}

TEST(IntegrationTest, DiskAndMemoryEpsLinkIdentical) {
  Pipeline p = MakePipeline(400, 1500, 5, 1002);
  EpsLinkOptions opts;
  opts.eps = p.workload.max_intra_gap;
  opts.min_sup = 3;
  Result<Clustering> mem = RunEpsLink(*p.mem_view, opts);
  Result<Clustering> disk = RunEpsLink(p.disk->view(), opts);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(mem.value().assignment, disk.value().assignment);
}

TEST(IntegrationTest, DiskAndMemoryDbscanIdentical) {
  Pipeline p = MakePipeline(300, 900, 4, 1003);
  DbscanOptions opts;
  opts.eps = p.workload.max_intra_gap;
  opts.min_pts = 3;
  Result<Clustering> mem = RunDbscan(*p.mem_view, opts);
  Result<Clustering> disk = RunDbscan(p.disk->view(), opts);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(mem.value().assignment, disk.value().assignment);
}

// The buffer manager behind a disk view is not thread-safe, so a run
// over a view ignores the thread knobs and stays serial; the results
// still equal the parallel in-memory runs. Under ThreadSanitizer
// (`run_all.sh tsan`) a parallel phase over the disk view would race.
TEST(IntegrationTest, ParallelKnobsRunSeriallyOverDiskView) {
  Pipeline p = MakePipeline(300, 900, 4, 1004);
  DbscanOptions dbscan;
  dbscan.eps = p.workload.max_intra_gap;
  dbscan.min_pts = 3;
  dbscan.num_threads = 4;
  Result<Clustering> mem_d = RunDbscan(*p.mem_view, dbscan);
  Result<Clustering> disk_d = RunDbscan(p.disk->view(), dbscan);
  ASSERT_TRUE(mem_d.ok() && disk_d.ok());
  EXPECT_EQ(mem_d.value().assignment, disk_d.value().assignment);

  KMedoidsOptions kmedoids;
  kmedoids.k = 4;
  kmedoids.seed = 9;
  kmedoids.max_unsuccessful_swaps = 5;
  kmedoids.num_restarts = 3;
  kmedoids.num_threads = 3;
  Result<KMedoidsResult> mem_k = RunKMedoids(*p.mem_view, kmedoids);
  Result<KMedoidsResult> disk_k = RunKMedoids(p.disk->view(), kmedoids);
  ASSERT_TRUE(mem_k.ok() && disk_k.ok());
  EXPECT_EQ(mem_k.value().medoids, disk_k.value().medoids);
  EXPECT_EQ(mem_k.value().clustering.assignment,
            disk_k.value().clustering.assignment);
  EXPECT_TRUE(p.disk->view().status().ok());
}

TEST(IntegrationTest, DiskAndMemorySingleLinkIdentical) {
  Pipeline p = MakePipeline(300, 800, 4, 1004);
  SingleLinkOptions opts;
  opts.delta = 0.1 * p.workload.max_intra_gap;
  Result<SingleLinkResult> mem = RunSingleLink(*p.mem_view, opts);
  Result<SingleLinkResult> disk = RunSingleLink(p.disk->view(), opts);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(disk.ok());
  const auto& mm = mem.value().dendrogram.merges();
  const auto& dm = disk.value().dendrogram.merges();
  ASSERT_EQ(mm.size(), dm.size());
  for (size_t i = 0; i < mm.size(); ++i) {
    EXPECT_EQ(mm[i].a, dm[i].a);
    EXPECT_EQ(mm[i].b, dm[i].b);
    EXPECT_DOUBLE_EQ(mm[i].distance, dm[i].distance);
  }
}

TEST(IntegrationTest, DensityMethodsRecoverWorkload) {
  Pipeline p = MakePipeline(1200, 3000, 6, 1005);
  EpsLinkOptions opts;
  opts.eps = p.workload.max_intra_gap;
  opts.min_sup = 10;
  Clustering c = std::move(RunEpsLink(*p.mem_view, opts)).value();
  // Every planted cluster intact (never split, never lost to noise).
  for (int label = 0; label < 6; ++label) {
    int first_cluster = -2;
    for (PointId q = 0; q < p.workload.points.size(); ++q) {
      if (p.workload.points.label(q) != label) continue;
      ASSERT_NE(c.assignment[q], kNoise);
      if (first_cluster == -2) {
        first_cluster = c.assignment[q];
      } else {
        ASSERT_EQ(c.assignment[q], first_cluster);
      }
    }
  }
}

TEST(IntegrationTest, SingleLinkFindsInterestingLevelAtPlantedK) {
  // The paper's Fig. 15 claim: the sharpest merge-distance jump appears
  // when the planted clusters have just been assembled.
  Pipeline p = MakePipeline(2000, 4000, 8, 1009, /*s_init=*/0.008);
  SingleLinkOptions opts;
  opts.delta = 0.5 * p.workload.max_intra_gap;
  Result<SingleLinkResult> r = RunSingleLink(*p.mem_view, opts);
  ASSERT_TRUE(r.ok());
  InterestingLevelOptions ilo;
  ilo.window = 10;
  ilo.factor = 8.0;
  std::vector<InterestingLevel> levels =
      DetectInterestingLevels(r.value().dendrogram, ilo);
  ASSERT_FALSE(levels.empty());
  // Some detected level must sit near the planted cluster count plus
  // outliers (outliers remain singletons at that height).
  bool found_plausible = false;
  const InterestingLevel* sharpest = &levels.front();
  for (const InterestingLevel& level : levels) {
    if (level.clusters_remaining >= 8 &&
        level.clusters_remaining <= 8 + 80) {
      found_plausible = true;
    }
    if (level.jump_ratio > sharpest->jump_ratio) sharpest = &level;
  }
  EXPECT_TRUE(found_plausible);
  // Cutting just below the sharpest jump recovers the ground truth well
  // (the paper's "sharpest distance change" is the cluster level).
  Clustering cut = r.value().dendrogram.CutAtDistance(
      sharpest->distance_before, /*min_size=*/10);
  double ari = AdjustedRandIndex(p.workload.points.labels(), cut.assignment,
                                 NoiseHandling::kIgnore);
  EXPECT_GT(ari, 0.9);
}

TEST(IntegrationTest, AllMethodsAgreeOnWellSeparatedClusters) {
  Pipeline p = MakePipeline(1000, 2500, 5, 1007);
  double eps = p.workload.max_intra_gap;
  EpsLinkOptions eo;
  eo.eps = eps;
  eo.min_sup = 10;
  Clustering el = std::move(RunEpsLink(*p.mem_view, eo)).value();
  DbscanOptions dbo;
  dbo.eps = eps;
  dbo.min_pts = 2;
  Clustering db = std::move(RunDbscan(*p.mem_view, dbo)).value();
  Result<SingleLinkResult> sl =
      RunSingleLink(*p.mem_view, SingleLinkOptions{});
  ASSERT_TRUE(sl.ok());
  Clustering cut = sl.value().dendrogram.CutAtDistance(eps, /*min_size=*/10);
  // eps-link vs single-link cut: identical partitions by theory.
  EXPECT_TRUE(SamePartition(el.assignment, cut.assignment));
  // DBSCAN(MinPts=2) agrees on everything except min_sup handling; the
  // cluster structures must match on points both consider clustered.
  double ari = AdjustedRandIndex(el.assignment, db.assignment,
                                 NoiseHandling::kIgnore);
  EXPECT_GT(ari, 0.999);
}

TEST(IntegrationTest, DiskAndMemoryQueriesIdentical) {
  // The query primitives (k-NN, range, OPTICS) must also be storage-
  // agnostic.
  Pipeline p = MakePipeline(300, 800, 4, 1010);
  TraversalWorkspace mem_ws(p.gen.net.num_nodes());
  TraversalWorkspace disk_ws(p.gen.net.num_nodes());
  const NetworkView& mem = *p.mem_view;
  const NetworkView& disk = p.disk->view();
  double eps = p.workload.max_intra_gap;
  for (PointId q = 0; q < 800; q += 97) {
    std::vector<RangeResult> a, b;
    RangeQuery(mem, mem, q, eps, &mem_ws, &a);
    RangeQuery(disk, disk, q, eps, &disk_ws, &b);
    auto by_id = [](const RangeResult& x, const RangeResult& y) {
      return x.id < y.id;
    };
    std::sort(a.begin(), a.end(), by_id);
    std::sort(b.begin(), b.end(), by_id);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id);
      ASSERT_DOUBLE_EQ(a[i].dist, b[i].dist);
    }
    KNearestNeighbors(mem, mem, q, 7, &mem_ws, &a);
    KNearestNeighbors(disk, disk, q, 7, &disk_ws, &b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id);
      ASSERT_DOUBLE_EQ(a[i].dist, b[i].dist);
    }
  }
  OpticsOptions oo;
  oo.eps = eps;
  oo.min_pts = 3;
  FrozenGraph frozen = std::move(p.mem_view->Freeze()).value();
  OpticsResult om = std::move(OpticsOrder(*p.mem_view, frozen, oo).value());
  OpticsResult od = std::move(OpticsOrder(disk, disk, oo).value());
  EXPECT_EQ(om.order, od.order);
  EXPECT_EQ(om.reachability, od.reachability);
  EXPECT_EQ(om.core_distance, od.core_distance);
}

// A disk run reads only the adjacency its algorithm reaches. Every point
// lies in one corner of a grid (~9% of the nodes, the first ones in the
// store's connectivity order) and eps links only points on neighboring
// edges, so ε-Link and DBSCAN never leave that corner: they read well
// under half of the adjacency file. A run that first copied the whole
// adjacency into memory would read every page of it.
TEST(IntegrationTest, DiskRunReadsOnlyTheAdjacencyItReaches) {
  const NodeId side = 60;
  const NodeId corner = 18;
  Network net = MakeGridNetwork(side, side, 1.0);
  PointSetBuilder builder;
  for (NodeId r = 0; r < corner; ++r) {
    for (NodeId c = 0; c + 1 < corner; ++c) {
      builder.Add(r * side + c, r * side + c + 1, 0.5, -1);
    }
  }
  PointSet points = std::move(std::move(builder).Build(net)).value();
  EpsLinkOptions eps_link;
  eps_link.eps = 1.0;
  DbscanOptions dbscan;
  dbscan.eps = 1.0;
  for (const ClusterSpec& spec : {MakeSpec(eps_link), MakeSpec(dbscan)}) {
    SCOPED_TRACE(AlgorithmName(spec.algorithm));
    auto bundle = std::move(DiskNetworkBundle::Create(
                                net, points, 64 << 10, 1024,
                                NodePlacement::kConnectivity, 3)
                                .value());
    const uint64_t adj_pages =
        bundle->GetIoBreakdown().adj_flat.pages_allocated;
    ASSERT_GE(adj_pages, 40u);
    bundle->ResetIoStats();
    Result<ClusterOutput> out = RunClustering(bundle->view(), spec);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const uint64_t reads = bundle->GetIoBreakdown().adj_flat.page_reads;
    EXPECT_GT(reads, 0u);
    EXPECT_LT(reads, adj_pages / 4)
        << reads << " of " << adj_pages << " adjacency pages read";
  }
}

TEST(IntegrationTest, AsciiMapShowsPlantedClusters) {
  Pipeline p = MakePipeline(900, 2000, 4, 1008);
  Clustering truth;
  truth.assignment = p.workload.points.labels();
  truth.num_clusters = 4;
  std::string map = AsciiClusterMap(p.gen.net, p.workload.points,
                                    p.gen.coords, truth, 12, 40);
  // The map must mention every cluster letter at least once.
  for (char c : {'a', 'b', 'c', 'd'}) {
    EXPECT_NE(map.find(c), std::string::npos) << "missing cluster " << c;
  }
}

}  // namespace
}  // namespace netclus
