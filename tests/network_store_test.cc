// Tests for the disk-based storage architecture (Section 4.1): building,
// reopening, and equivalence of DiskNetworkView with InMemoryNetworkView.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/network_store.h"

namespace netclus {
namespace {

struct TestData {
  GeneratedNetwork gen;
  PointSet points;
};

TestData MakeData(NodeId nodes, PointId num_points, uint64_t seed) {
  TestData d;
  d.gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
  d.points =
      std::move(GenerateUniformPoints(d.gen.net, num_points, seed + 1))
          .value();
  return d;
}

void ExpectViewsMatch(const NetworkView& a, const NetworkView& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_points(), b.num_points());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    std::set<std::pair<NodeId, double>> na, nb;
    a.ForEachNeighbor(n, [&](NodeId m, double w) { na.insert({m, w}); });
    b.ForEachNeighbor(n, [&](NodeId m, double w) { nb.insert({m, w}); });
    ASSERT_EQ(na, nb) << "node " << n;
    for (const auto& [m, w] : na) {
      ASSERT_DOUBLE_EQ(a.EdgeWeight(n, m), b.EdgeWeight(n, m));
      std::vector<EdgePoint> pa, pb;
      a.GetEdgePoints(n, m, &pa);
      b.GetEdgePoints(n, m, &pb);
      ASSERT_EQ(pa.size(), pb.size());
      for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i].id, pb[i].id);
        ASSERT_DOUBLE_EQ(pa[i].offset, pb[i].offset);
      }
    }
  }
  for (PointId p = 0; p < a.num_points(); ++p) {
    PointPos qa = a.PointPosition(p), qb = b.PointPosition(p);
    ASSERT_EQ(qa.u, qb.u);
    ASSERT_EQ(qa.v, qb.v);
    ASSERT_DOUBLE_EQ(qa.offset, qb.offset);
  }
  std::vector<std::tuple<NodeId, NodeId, PointId, uint32_t>> ga, gb;
  a.ForEachPointGroup([&](NodeId u, NodeId v, PointId f, uint32_t c) {
    ga.emplace_back(u, v, f, c);
  });
  b.ForEachPointGroup([&](NodeId u, NodeId v, PointId f, uint32_t c) {
    gb.emplace_back(u, v, f, c);
  });
  ASSERT_EQ(ga, gb);
}

TEST(NetworkStoreTest, DiskViewMatchesInMemoryView) {
  TestData d = MakeData(120, 300, 21);
  InMemoryNetworkView mem(d.gen.net, d.points);
  auto bundle = std::move(
      DiskNetworkBundle::Create(d.gen.net, d.points, 1 << 20, 4096,
                                NodePlacement::kConnectivity, 1)
          .value());
  ExpectViewsMatch(mem, bundle->view());
}

TEST(NetworkStoreTest, RandomPlacementAlsoMatches) {
  TestData d = MakeData(80, 150, 22);
  InMemoryNetworkView mem(d.gen.net, d.points);
  auto bundle = std::move(DiskNetworkBundle::Create(d.gen.net, d.points,
                                                    1 << 20, 4096,
                                                    NodePlacement::kRandom, 5)
                              .value());
  ExpectViewsMatch(mem, bundle->view());
}

TEST(NetworkStoreTest, SmallPagesForceChunkedGroups) {
  // With 128-byte pages a group of many points must split into chunks;
  // reads must still reassemble it exactly.
  Network net = MakePathNetwork(3, 100.0);
  PointSetBuilder b;
  const int kPoints = 200;
  for (int i = 0; i < kPoints; ++i) {
    b.Add(0, 1, 100.0 * (i + 1) / (kPoints + 1), i);
  }
  b.Add(1, 2, 50.0, -1);
  PointSet ps = std::move(std::move(b).Build(net)).value();
  InMemoryNetworkView mem(net, ps);
  auto bundle = std::move(
      DiskNetworkBundle::Create(net, ps, 64 * 128, 128,
                                NodePlacement::kConnectivity, 1)
          .value());
  ExpectViewsMatch(mem, bundle->view());
}

TEST(NetworkStoreTest, TinyBufferStillCorrectJustMoreIo) {
  TestData d = MakeData(1500, 4000, 23);
  InMemoryNetworkView mem(d.gen.net, d.points);
  // 16 frames only: constant eviction pressure.
  auto bundle = std::move(
      DiskNetworkBundle::Create(d.gen.net, d.points, 16 * 4096, 4096,
                                NodePlacement::kConnectivity, 1)
          .value());
  ExpectViewsMatch(mem, bundle->view());
  EXPECT_GT(bundle->TotalPhysicalReads(), 0u);
}

TEST(NetworkStoreTest, BuildRequiresEmptyFiles) {
  TestData d = MakeData(30, 20, 24);
  auto f1 = PagedFile::CreateInMemory(4096);
  auto f2 = PagedFile::CreateInMemory(4096);
  auto f3 = PagedFile::CreateInMemory(4096);
  auto f4 = PagedFile::CreateInMemory(4096);
  ASSERT_TRUE(f1->AllocatePage().ok());  // poison: non-empty
  BufferManager bm(1 << 20, 4096);
  NetworkStoreFiles files{f1.get(), f2.get(), f3.get(), f4.get()};
  auto store = NetworkStore::Build(d.gen.net, d.points, &bm, files,
                                   NodePlacement::kConnectivity, 1);
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument());
}

TEST(NetworkStoreTest, OpenAfterBuildReadsSameData) {
  TestData d = MakeData(60, 120, 25);
  auto f1 = PagedFile::CreateInMemory(4096);
  auto f2 = PagedFile::CreateInMemory(4096);
  auto f3 = PagedFile::CreateInMemory(4096);
  auto f4 = PagedFile::CreateInMemory(4096);
  NetworkStoreFiles files{f1.get(), f2.get(), f3.get(), f4.get()};
  {
    BufferManager bm(1 << 20, 4096);
    auto store = NetworkStore::Build(d.gen.net, d.points, &bm, files,
                                     NodePlacement::kConnectivity, 1);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(bm.FlushAll().ok());
  }
  {
    BufferManager bm(1 << 20, 4096);
    auto store = NetworkStore::Open(&bm, files);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->num_nodes(), d.gen.net.num_nodes());
    EXPECT_EQ(store.value()->num_points(), d.points.size());
    DiskNetworkView view(store.value().get());
    InMemoryNetworkView mem(d.gen.net, d.points);
    ExpectViewsMatch(mem, view);
    ASSERT_TRUE(bm.FlushAll().ok());
  }
}

// Open reads the checksummed v2 format only: a store whose headers name
// any other version (0 and 1 were the unchecksummed format) is refused as
// Corruption that names the version.
TEST(NetworkStoreTest, OpenRejectsOtherFormatVersions) {
  TestData d = MakeData(40, 60, 27);
  auto f1 = PagedFile::CreateInMemory(4096);
  auto f2 = PagedFile::CreateInMemory(4096);
  auto f3 = PagedFile::CreateInMemory(4096);
  auto f4 = PagedFile::CreateInMemory(4096);
  NetworkStoreFiles files{f1.get(), f2.get(), f3.get(), f4.get()};
  {
    BufferManager bm(1 << 20, 4096);
    ASSERT_TRUE(NetworkStore::Build(d.gen.net, d.points, &bm, files,
                                    NodePlacement::kConnectivity, 1)
                    .ok());
    ASSERT_TRUE(bm.FlushAll().ok());
  }
  // The version is a u32 at byte 16 of the adjacency header page and at
  // byte 12 of the points header page.
  auto set_version = [](PagedFile* f, size_t offset, uint32_t version) {
    std::vector<char> page(f->page_size());
    ASSERT_TRUE(f->ReadPage(0, page.data()).ok());
    std::memcpy(page.data() + offset, &version, sizeof(version));
    ASSERT_TRUE(f->WritePage(0, page.data()).ok());
  };
  for (uint32_t version : {0u, 1u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    set_version(files.adj_flat, 16, version);
    set_version(files.pts_flat, 12, version);
    BufferManager bm(1 << 20, 4096);
    Result<std::unique_ptr<NetworkStore>> store =
        NetworkStore::Open(&bm, files);
    ASSERT_TRUE(store.status().IsCorruption()) << store.status().ToString();
    EXPECT_NE(store.status().ToString().find("format version " +
                                             std::to_string(version)),
              std::string::npos)
        << store.status().ToString();
  }
}

TEST(NetworkStoreTest, OnDiskBundleRoundTripThroughRealFiles) {
  namespace fs = std::filesystem;
  std::string dir =
      fs::temp_directory_path() / "netclus_store_bundle_test";
  fs::create_directories(dir);
  TestData d = MakeData(80, 200, 27);
  InMemoryNetworkView mem(d.gen.net, d.points);
  {
    auto bundle = DiskNetworkBundle::CreateOnDisk(
        dir, d.gen.net, d.points, 1 << 20, 4096,
        NodePlacement::kConnectivity, 1);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ExpectViewsMatch(mem, bundle.value()->view());
    ASSERT_TRUE(bundle.value()->buffer_manager().FlushAll().ok());
  }
  {
    // A fresh process-equivalent: reopen from the files alone.
    auto bundle = DiskNetworkBundle::OpenOnDisk(dir, 1 << 20, 4096);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ExpectViewsMatch(mem, bundle.value()->view());
  }
  fs::remove_all(dir);
}

TEST(NetworkStoreTest, OpenOnDiskRejectsGarbage) {
  namespace fs = std::filesystem;
  std::string dir = fs::temp_directory_path() / "netclus_store_garbage";
  fs::create_directories(dir);
  // Valid page geometry, invalid content.
  for (const char* name : {"adj.dat", "adj.idx", "pts.dat", "pts.idx"}) {
    auto f = PagedFile::Open(std::string(dir) + "/" + name, 4096, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->AllocatePage().ok());  // zeroed page: bad magic
  }
  auto bundle = DiskNetworkBundle::OpenOnDisk(dir, 1 << 20, 4096);
  EXPECT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption());
  fs::remove_all(dir);
}

TEST(NetworkStoreTest, OpenOnDiskMissingDirectoryFails) {
  auto bundle = DiskNetworkBundle::OpenOnDisk(
      "/nonexistent_netclus_dir_12345", 1 << 20, 4096);
  EXPECT_FALSE(bundle.ok());
}

TEST(NetworkStoreTest, ConnectivityPlacementReducesScanIo) {
  // A BFS-ordered layout should need fewer physical reads than a random
  // layout for a graph traversal with a small buffer.
  TestData d = MakeData(2000, 1000, 26);
  auto run = [&](NodePlacement placement) {
    auto bundle = std::move(DiskNetworkBundle::Create(d.gen.net, d.points,
                                                      8 * 4096, 4096,
                                                      placement, 3)
                                .value());
    // Graph-traversal access pattern: BFS over adjacency lists.
    uint64_t before = bundle->TotalPhysicalReads();
    std::vector<bool> seen(d.gen.net.num_nodes(), false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      bundle->view().ForEachNeighbor(n, [&](NodeId m, double) {
        if (!seen[m]) {
          seen[m] = true;
          stack.push_back(m);
        }
      });
    }
    return bundle->TotalPhysicalReads() - before;
  };
  uint64_t connectivity_io = run(NodePlacement::kConnectivity);
  uint64_t random_io = run(NodePlacement::kRandom);
  EXPECT_LT(connectivity_io, random_io);
}

}  // namespace
}  // namespace netclus
