// End-to-end robustness tests: single-byte corruption of the on-disk
// store must surface as Status::Corruption (never a crash, never wrong
// clusters), and a seeded fault-injection soak over the whole clustering
// pipeline must either fail loudly or produce bit-identical results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/network_store.h"
#include "netclus.h"
#include "storage/fault_injection.h"

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

ClusterSpec KMedoidsSpec() {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kKMedoids;
  spec.kmedoids.k = 4;
  spec.kmedoids.seed = 7;
  return spec;
}

ClusterSpec EpsLinkSpec() {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link.eps = 0.8;
  spec.eps_link.min_sup = 2;
  return spec;
}

ClusterSpec DbscanSpec() {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kDbscan;
  spec.dbscan.eps = 0.8;
  spec.dbscan.min_pts = 3;
  return spec;
}

std::vector<ClusterSpec> RoundTripSpecs() {
  return {KMedoidsSpec(), EpsLinkSpec(), DbscanSpec()};
}

// Flips one bit of byte `offset` of `path` in place.
void FlipByteOnDisk(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " @" << offset;
  byte ^= 0x20;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

class CorruptionRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    namespace fs = std::filesystem;
    // One directory per test: gtest_discover_tests runs each TEST_F as
    // its own ctest entry, so a shared directory would be clobbered by
    // sibling processes under `ctest -j`.
    dir_ = fs::temp_directory_path() /
           (std::string("netclus_corruption_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    data_ = MakeData(120, 300, 61);
    auto bundle = DiskNetworkBundle::CreateOnDisk(
        dir_, data_.gen.net, data_.points, 1 << 20, 4096,
        NodePlacement::kConnectivity, 1);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ASSERT_TRUE(bundle.value()->buffer_manager().FlushAll().ok());
    for (const ClusterSpec& spec : RoundTripSpecs()) {
      auto out = RunClustering(bundle.value()->view(), spec);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      clean_.push_back(out.value().clustering.assignment);
    }
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Reopens the (possibly corrupted) store once per spec — a view that
  // recorded a storage error refuses every later run — and runs it.
  // Every path must either report a non-OK Status or produce exactly the
  // clean results — silent wrong answers and crashes are the bug.
  void ReopenAndCheck(bool expect_failure) {
    bool any_failure = false;
    std::vector<ClusterSpec> specs = RoundTripSpecs();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto bundle = DiskNetworkBundle::OpenOnDisk(dir_, 1 << 20, 4096);
      if (!bundle.ok()) {
        EXPECT_TRUE(bundle.status().IsCorruption())
            << bundle.status().ToString();
        return;
      }
      auto out = RunClustering(bundle.value()->view(), specs[i]);
      if (out.ok()) {
        EXPECT_EQ(out.value().clustering.assignment, clean_[i])
            << "corrupted store produced a silently wrong clustering";
      } else {
        any_failure = true;
        EXPECT_TRUE(out.status().IsCorruption() ||
                    out.status().IsUnavailable() || out.status().IsIOError())
            << out.status().ToString();
      }
    }
    if (expect_failure) {
      EXPECT_TRUE(any_failure)
          << "corruption in a page every run reads went undetected";
    }
  }

  std::string PathOf(const char* name) {
    return std::string(dir_) + "/" + name;
  }

  std::string dir_;
  TestData data_;
  std::vector<std::vector<int>> clean_;  // one per RoundTripSpecs() entry
};

TEST_F(CorruptionRoundTripTest, HeaderPageByteFlipFailsOpen) {
  FlipByteOnDisk(PathOf("adj.dat"), 100);  // header page payload
  auto bundle = DiskNetworkBundle::OpenOnDisk(dir_, 1 << 20, 4096);
  ASSERT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption()) << bundle.status().ToString();
}

TEST_F(CorruptionRoundTripTest, AdjacencyPageByteFlipIsNeverSilent) {
  // Page 1 of the adjacency file holds node records every run reads.
  FlipByteOnDisk(PathOf("adj.dat"), 4096 + 1000);
  ReopenAndCheck(/*expect_failure=*/true);
}

TEST_F(CorruptionRoundTripTest, PointsPageByteFlipIsNeverSilent) {
  FlipByteOnDisk(PathOf("pts.dat"), 4096 + 500);
  ReopenAndCheck(/*expect_failure=*/true);
}

TEST_F(CorruptionRoundTripTest, IndexPageByteFlipIsNeverSilent) {
  // B+-tree pages are checksummed like the flat files.
  FlipByteOnDisk(PathOf("adj.idx"), 17);
  ReopenAndCheck(/*expect_failure=*/true);
}

TEST_F(CorruptionRoundTripTest, FooterByteFlipIsDetected) {
  // Corrupting the footer itself must also read as Corruption: first the
  // CRC field (page 1 bytes 4088-4091), then — after restoring it — the
  // stored page-id field (bytes 4092-4095), which verification compares
  // against the expected page id.
  FlipByteOnDisk(PathOf("pts.dat"), 4096 + 4089);
  ReopenAndCheck(/*expect_failure=*/true);
  FlipByteOnDisk(PathOf("pts.dat"), 4096 + 4089);  // restore
  FlipByteOnDisk(PathOf("pts.dat"), 4096 + 4093);
  ReopenAndCheck(/*expect_failure=*/true);
}

TEST_F(CorruptionRoundTripTest, SweepManyOffsetsNeverCrashesOrLies) {
  // A broad sweep across all four files and many page positions. The
  // invariant is the contract itself: every reopen+run either fails with
  // a storage Status or matches the clean clustering bit-for-bit.
  struct Target {
    const char* file;
    uint64_t offset;
  };
  std::vector<Target> targets;
  for (const char* name : {"adj.dat", "pts.dat", "adj.idx", "pts.idx"}) {
    uint64_t size = std::filesystem::file_size(PathOf(name));
    for (uint64_t off : {uint64_t{37}, size / 3, size / 2, size - 19}) {
      targets.push_back({name, off});
    }
  }
  for (const Target& t : targets) {
    SCOPED_TRACE(std::string(t.file) + " @" + std::to_string(t.offset));
    FlipByteOnDisk(PathOf(t.file), t.offset);
    ReopenAndCheck(/*expect_failure=*/false);
    FlipByteOnDisk(PathOf(t.file), t.offset);  // restore for the next one
  }
  ReopenAndCheck(/*expect_failure=*/false);  // restored store still clean
}

// --- Seeded fault-injection soak ------------------------------------------

class FaultSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(100, 250, 71);
    for (auto* f : {&adj_flat_, &adj_index_, &pts_flat_, &pts_index_}) {
      *f = PagedFile::CreateInMemory(4096);
    }
    NetworkStoreFiles files{adj_flat_.get(), adj_index_.get(),
                            pts_flat_.get(), pts_index_.get()};
    BufferManager bm(1 << 20, 4096);
    auto store = NetworkStore::Build(data_.gen.net, data_.points, &bm, files,
                                     NodePlacement::kConnectivity, 1);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(bm.FlushAll().ok());
    // Clean baseline through a fresh pool, exactly like the trials below.
    clean_ = RunOnce(0, 0.0, 0.0);
    ASSERT_TRUE(clean_.status.ok()) << clean_.status.ToString();
  }

  struct RunResult {
    Status status = Status::OK();
    std::vector<std::vector<int>> assignments;  // kmedoids, epslink
    uint64_t retries = 0;
    uint64_t injected = 0;
  };

  // Opens the store through FaultInjectionFile wrappers (random faults
  // seeded with `seed`) and runs both algorithms. Returns the first
  // non-OK Status, or OK with both assignments.
  RunResult RunOnce(uint64_t seed, double transient_prob,
                    double bit_flip_prob) {
    RunResult r;
    FaultInjectionFile adj_flat(adj_flat_.get());
    FaultInjectionFile adj_index(adj_index_.get());
    FaultInjectionFile pts_flat(pts_flat_.get());
    FaultInjectionFile pts_index(pts_index_.get());
    std::vector<FaultInjectionFile*> wrapped = {&adj_flat, &adj_index,
                                                &pts_flat, &pts_index};
    if (transient_prob > 0.0 || bit_flip_prob > 0.0) {
      for (size_t i = 0; i < wrapped.size(); ++i) {
        wrapped[i]->EnableRandomFaults(seed * 4 + i, transient_prob,
                                       bit_flip_prob);
      }
    }
    BufferManager bm(1 << 20, 4096);
    bm.set_sleep_function([](uint64_t) {});  // soak runs instantly
    NetworkStoreFiles files{&adj_flat, &adj_index, &pts_flat, &pts_index};
    auto store = NetworkStore::Open(&bm, files);
    if (!store.ok()) {
      r.status = store.status();
    } else {
      DiskNetworkView view(store.value().get());
      for (ClusterSpec spec : {KMedoidsSpec(), EpsLinkSpec()}) {
        auto out = RunClustering(view, spec);
        if (!out.ok()) {
          r.status = out.status();
          break;
        }
        r.assignments.push_back(out.value().clustering.assignment);
        view.ClearStatus();
      }
    }
    r.retries = bm.stats().read_retries;
    for (FaultInjectionFile* f : wrapped) {
      r.injected += f->fault_stats().total();
    }
    return r;
  }

  TestData data_;
  std::unique_ptr<PagedFile> adj_flat_, adj_index_, pts_flat_, pts_index_;
  RunResult clean_;
};

TEST_F(FaultSoakTest, TransientErrorsAreAbsorbedByRetries) {
  // Transient-only faults: the retry policy (3 retries) makes each read
  // succeed with overwhelming probability, so runs complete OK and must
  // match the clean baseline exactly.
  uint64_t ok_runs = 0, total_retries = 0, total_injected = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RunResult r = RunOnce(seed, /*transient_prob=*/0.05,
                          /*bit_flip_prob=*/0.0);
    total_retries += r.retries;
    total_injected += r.injected;
    if (r.status.ok()) {
      ++ok_runs;
      EXPECT_EQ(r.assignments, clean_.assignments)
          << "retried run diverged from the clean baseline (seed " << seed
          << ")";
    } else {
      EXPECT_TRUE(r.status.IsUnavailable() || r.status.IsCorruption())
          << r.status.ToString();
    }
  }
  EXPECT_GT(ok_runs, 0u);
  EXPECT_GT(total_injected, 0u) << "soak injected nothing; seeds too tame";
  EXPECT_GT(total_retries, 0u) << "faults were injected but never retried";
}

TEST_F(FaultSoakTest, BitFlipsNeverProduceSilentlyWrongClusters) {
  // The headline invariant of the PR: with bit flips in the mix, a run
  // either reports a non-OK Status at the RunClustering boundary or its
  // clustering is bit-identical to the clean run. Both outcomes occur
  // across the seed range; a wrong-but-OK result is the only failure.
  uint64_t ok_runs = 0, failed_runs = 0, total_injected = 0;
  for (uint64_t seed = 100; seed < 130; ++seed) {
    RunResult r = RunOnce(seed, /*transient_prob=*/0.02,
                          /*bit_flip_prob=*/0.002);
    total_injected += r.injected;
    if (r.status.ok()) {
      ++ok_runs;
      ASSERT_EQ(r.assignments, clean_.assignments)
          << "SILENT WRONG ANSWER at seed " << seed;
    } else {
      ++failed_runs;
      EXPECT_TRUE(r.status.IsCorruption() || r.status.IsUnavailable() ||
                  r.status.IsIOError())
          << r.status.ToString();
    }
  }
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(ok_runs + failed_runs, 0u);
  EXPECT_GT(failed_runs, 0u)
      << "no bit flip ever hit a page the runs read; raise the rate";
}

}  // namespace
}  // namespace netclus
