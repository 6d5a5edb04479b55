// Tests for the unified RunClustering entry point: name parsing, the
// MakeSpec shim, output shape, the Single-Link cut cascade, and the
// evaluation wrapper built on top of it.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/single_link.h"
#include "eval/evaluation.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_store.h"
#include "netclus.h"
#include "storage/fault_injection.h"

namespace netclus {
namespace {

TEST(NetclusApiTest, AlgorithmNamesRoundTrip) {
  for (Algorithm a : {Algorithm::kKMedoids, Algorithm::kEpsLink,
                      Algorithm::kSingleLink, Algorithm::kDbscan}) {
    Result<Algorithm> parsed = ParseAlgorithm(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(parsed.value(), a);
  }
  EXPECT_TRUE(ParseAlgorithm("kmeans").status().IsInvalidArgument());
  EXPECT_TRUE(ParseAlgorithm("").status().IsInvalidArgument());
}

class NetclusApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = GenerateRoadNetwork({70, 1.3, 0.3, 131});
    ps_ = std::move(GenerateUniformPoints(g_.net, 100, 132)).value();
    view_.emplace(g_.net, ps_);
  }
  GeneratedNetwork g_;
  PointSet ps_;
  std::optional<InMemoryNetworkView> view_;
};

// The output shape and the MakeSpec shim, checked on their own terms.
TEST_F(NetclusApiFixture, KMedoidsOutputShape) {
  ClusterSpec spec = MakeSpec(KMedoidsOptions{});
  spec.kmedoids.k = 4;
  spec.kmedoids.seed = 133;
  EXPECT_EQ(spec.algorithm, Algorithm::kKMedoids);
  Result<ClusterOutput> out = RunClustering(*view_, spec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().algorithm, Algorithm::kKMedoids);
  EXPECT_EQ(out.value().medoids.size(), 4u);
  EXPECT_GT(out.value().cost, 0.0);
  EXPECT_EQ(out.value().clustering.assignment.size(), ps_.size());
  EXPECT_FALSE(out.value().dendrogram.has_value());
  EXPECT_GE(out.value().wall_seconds, 0.0);
}

TEST_F(NetclusApiFixture, MakeSpecSelectsAlgorithmAndCarriesOptions) {
  EpsLinkOptions eo;
  eo.eps = 0.8;
  eo.min_sup = 2;
  ClusterSpec es = MakeSpec(eo);
  EXPECT_EQ(es.algorithm, Algorithm::kEpsLink);
  EXPECT_EQ(es.eps_link.eps, 0.8);
  EXPECT_EQ(es.eps_link.min_sup, 2u);

  DbscanOptions dbo;
  dbo.eps = 0.7;
  dbo.min_pts = 4;
  ClusterSpec ds = MakeSpec(dbo);
  EXPECT_EQ(ds.algorithm, Algorithm::kDbscan);
  EXPECT_EQ(ds.dbscan.min_pts, 4u);

  SingleLinkOptions slo;
  slo.delta = 0.2;
  ClusterSpec ss = MakeSpec(slo, /*cut_distance=*/0.9, /*cut_min_size=*/3);
  EXPECT_EQ(ss.algorithm, Algorithm::kSingleLink);
  EXPECT_EQ(ss.single_link.delta, 0.2);
  EXPECT_EQ(ss.cut_distance, 0.9);
  EXPECT_EQ(ss.cut_min_size, 3u);
  // The spec defaults stay untouched: no validate.
  EXPECT_FALSE(ss.validate);
}

// A parallel run's traversals happen on pool workers; RunClustering
// credits them to the calling thread, so a caller diffing its own
// counters around the run sees the same settles and heap pops at any
// thread count (8 k-medoids restarts, DBSCAN's range precompute).
TEST_F(NetclusApiFixture, ParallelRunsCountWorkerTraversals) {
  KMedoidsOptions ko;
  ko.k = 4;
  ko.seed = 134;
  ko.num_restarts = 8;
  DbscanOptions dbo;
  dbo.eps = 0.8;
  dbo.min_pts = 2;
  for (ClusterSpec spec : {MakeSpec(ko), MakeSpec(dbo)}) {
    TraversalCounters work[2];
    const uint32_t threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      spec.kmedoids.num_threads = threads[i];
      spec.dbscan.num_threads = threads[i];
      const TraversalCounters before = LocalTraversalCounters();
      Result<ClusterOutput> out = RunClustering(*view_, spec);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      work[i] = LocalTraversalCounters() - before;
    }
    SCOPED_TRACE(AlgorithmName(spec.algorithm));
    EXPECT_GT(work[0].settled_nodes, 0u);
    EXPECT_EQ(work[1].settled_nodes, work[0].settled_nodes);
    EXPECT_EQ(work[1].heap_pops, work[0].heap_pops);
  }
}

TEST_F(NetclusApiFixture, SingleLinkCutAtExplicitDistance) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kSingleLink;
  spec.cut_distance = 0.8;
  spec.cut_min_size = 2;
  Result<ClusterOutput> out = RunClustering(*view_, spec);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.value().dendrogram.has_value());
  // The returned dendrogram is the full merge history; the flat
  // clustering must be exactly its cut at the spec's distance.
  Clustering want = out.value().dendrogram->CutAtDistance(0.8, 2);
  EXPECT_EQ(out.value().clustering.assignment, want.assignment);
  EXPECT_EQ(out.value().clustering.num_clusters, want.num_clusters);
}

TEST_F(NetclusApiFixture, SingleLinkCutFallsBackToStopDistanceThenCount) {
  // cut_distance unset + finite stop_distance => cut there.
  ClusterSpec spec;
  spec.algorithm = Algorithm::kSingleLink;
  spec.single_link.stop_distance = 0.9;
  Result<ClusterOutput> at_stop = RunClustering(*view_, spec);
  ASSERT_TRUE(at_stop.ok());
  ASSERT_TRUE(at_stop.value().dendrogram.has_value());
  Clustering want = at_stop.value().dendrogram->CutAtDistance(0.9, 1);
  EXPECT_EQ(at_stop.value().clustering.assignment, want.assignment);

  // Neither set => cut at stop_cluster_count clusters.
  ClusterSpec by_count;
  by_count.algorithm = Algorithm::kSingleLink;
  by_count.single_link.stop_cluster_count = 5;
  Result<ClusterOutput> at_count = RunClustering(*view_, by_count);
  ASSERT_TRUE(at_count.ok());
  ASSERT_TRUE(at_count.value().dendrogram.has_value());
  Clustering want2 = at_count.value().dendrogram->CutAtCount(5, 1);
  EXPECT_EQ(at_count.value().clustering.assignment, want2.assignment);
}

TEST_F(NetclusApiFixture, InvalidOptionsSurfaceAsStatus) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kKMedoids;
  spec.kmedoids.k = 0;
  EXPECT_TRUE(RunClustering(*view_, spec).status().IsInvalidArgument());
  spec.algorithm = Algorithm::kDbscan;
  spec.dbscan.eps = -1.0;
  EXPECT_TRUE(RunClustering(*view_, spec).status().IsInvalidArgument());
}

// RunClustering is the storage-failure boundary: errors a DiskNetworkView
// swallowed — before or during the run — must come back as its Status.
class NetclusStorageBoundaryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Big enough that the store's working set exceeds the 4-frame pool
    // below — the run must keep doing physical (faultable) reads.
    g_ = GenerateRoadNetwork({500, 1.3, 0.3, 131});
    ps_ = std::move(GenerateUniformPoints(g_.net, 900, 132)).value();
    for (auto* f : {&adj_flat_, &adj_index_, &pts_flat_, &pts_index_}) {
      *f = PagedFile::CreateInMemory(4096);
    }
    NetworkStoreFiles files{adj_flat_.get(), adj_index_.get(),
                            pts_flat_.get(), pts_index_.get()};
    {
      BufferManager bm(1 << 20, 4096);
      auto store = NetworkStore::Build(g_.net, ps_, &bm, files,
                                       NodePlacement::kConnectivity, 1);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE(bm.FlushAll().ok());
    }
    for (auto& [wrapper, base] :
         {std::pair{&faulty_adj_flat_, adj_flat_.get()},
          std::pair{&faulty_adj_index_, adj_index_.get()},
          std::pair{&faulty_pts_flat_, pts_flat_.get()},
          std::pair{&faulty_pts_index_, pts_index_.get()}}) {
      wrapper->emplace(base);
    }
    // A tiny pool (4 frames) so every access goes to the faulty files.
    bm_ = std::make_unique<BufferManager>(4 * 4096, 4096);
    bm_->set_sleep_function([](uint64_t) {});
    NetworkStoreFiles faulty{&*faulty_adj_flat_, &*faulty_adj_index_,
                             &*faulty_pts_flat_, &*faulty_pts_index_};
    auto store = NetworkStore::Open(bm_.get(), faulty);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store.value());
    view_.emplace(store_.get());
  }

  ClusterSpec Spec() {
    ClusterSpec spec;
    spec.algorithm = Algorithm::kEpsLink;
    spec.eps_link.eps = 0.8;
    spec.eps_link.min_sup = 2;
    return spec;
  }

  GeneratedNetwork g_;
  PointSet ps_;
  std::unique_ptr<PagedFile> adj_flat_, adj_index_, pts_flat_, pts_index_;
  std::optional<FaultInjectionFile> faulty_adj_flat_, faulty_adj_index_,
      faulty_pts_flat_, faulty_pts_index_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<NetworkStore> store_;
  std::optional<DiskNetworkView> view_;
};

TEST_F(NetclusStorageBoundaryFixture, PreexistingViewErrorFailsFast) {
  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kPermanentError;
  e.op_index = 0;
  e.count = UINT64_MAX;
  faulty_adj_flat_->AddFault(e);
  view_->ForEachNeighbor(0, [](NodeId, double) {});  // swallows the error
  ASSERT_FALSE(view_->status().ok());
  Result<ClusterOutput> out = RunClustering(*view_, Spec());
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIOError()) << out.status().ToString();

  // ClearStatus + clean files => the same view works again.
  faulty_adj_flat_->ClearFaults();
  view_->ClearStatus();
  EXPECT_TRUE(view_->status().ok());
  EXPECT_TRUE(RunClustering(*view_, Spec()).ok());
}

TEST_F(NetclusStorageBoundaryFixture, MidRunErrorSurfacesAfterTheRun) {
  // Let the first reads succeed (Open already did; the run starts fine),
  // then fail everything: the error strikes mid-traversal and must come
  // back from RunClustering rather than yielding a truncated clustering.
  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kPermanentError;
  e.op_index = 5;
  e.count = UINT64_MAX;
  faulty_adj_flat_->AddFault(e);
  faulty_pts_flat_->AddFault(e);
  ASSERT_TRUE(view_->status().ok());  // nothing recorded yet
  Result<ClusterOutput> out = RunClustering(*view_, Spec());
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIOError()) << out.status().ToString();
}

TEST(NetclusApiTest, EvaluateClusteringReportsMetricsAgainstTruth) {
  GeneratedNetwork g = GenerateRoadNetwork({300, 1.3, 0.3, 141});
  ClusterWorkloadSpec wspec;
  wspec.total_points = 600;
  wspec.num_clusters = 4;
  wspec.outlier_fraction = 0.0;
  wspec.s_init = 0.02;
  wspec.seed = 142;
  GeneratedWorkload w =
      std::move(GenerateClusteredPoints(g.net, wspec).value());
  InMemoryNetworkView view(g.net, w.points);
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link.eps = w.max_intra_gap;
  spec.eps_link.min_sup = 2;
  Result<EvaluationReport> report =
      EvaluateClustering(view, spec, w.points.labels());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().has_ground_truth);
  EXPECT_GT(report.value().ari, 0.5);  // planted clusters, matched eps
  EXPECT_GT(report.value().nmi, 0.5);
  std::string text = FormatReport(report.value());
  EXPECT_NE(text.find("epslink"), std::string::npos);
  EXPECT_NE(text.find("ARI"), std::string::npos);
}

TEST(NetclusApiTest, EvaluateClusteringWithoutTruthSkipsMetrics) {
  GeneratedNetwork g = GenerateRoadNetwork({50, 1.3, 0.3, 151});
  PointSet ps = std::move(GenerateUniformPoints(g.net, 40, 152)).value();
  InMemoryNetworkView view(g.net, ps);
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link.eps = 0.8;
  Result<EvaluationReport> report = EvaluateClustering(view, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().has_ground_truth);
  std::string text = FormatReport(report.value());
  EXPECT_EQ(text.find("ARI"), std::string::npos);
}

}  // namespace
}  // namespace netclus
