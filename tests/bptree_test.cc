// Tests for the paged, bulk-loaded B+-tree, including randomized
// equivalence against std::map across page sizes (TEST_P sweep).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "storage/bptree.h"

namespace netclus {
namespace {

struct TreeFixture {
  explicit TreeFixture(uint32_t page_size, uint64_t pool_pages = 64) {
    file = PagedFile::CreateInMemory(page_size);
    bm = std::make_unique<BufferManager>(pool_pages * page_size, page_size);
    fid = bm->RegisterFile(file.get());
    Result<std::unique_ptr<BPlusTree>> t = BPlusTree::Create(bm.get(), fid);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    tree = std::move(t.value());
  }
  std::unique_ptr<PagedFile> file;
  std::unique_ptr<BufferManager> bm;
  FileId fid = 0;
  std::unique_ptr<BPlusTree> tree;
};

// Keys 0, step, 2*step, ... (n of them), each mapped to `value(key)`.
template <typename ValueFn>
std::vector<std::pair<uint64_t, uint64_t>> Sequence(uint64_t n, uint64_t step,
                                                   ValueFn value) {
  std::vector<std::pair<uint64_t, uint64_t>> data;
  data.reserve(n);
  for (uint64_t i = 0; i < n; ++i) data.emplace_back(i * step, value(i * step));
  return data;
}

TEST(BPlusTreeTest, EmptyTreeBehaviour) {
  TreeFixture f(4096);
  EXPECT_EQ(f.tree->size(), 0u);
  EXPECT_EQ(f.tree->height(), 1u);
  EXPECT_TRUE(f.tree->Get(1).status().IsNotFound());
  EXPECT_TRUE(f.tree->FloorEntry(10).status().IsNotFound());
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(BPlusTreeTest, BulkLoadSingleEntry) {
  TreeFixture f(4096);
  ASSERT_TRUE(f.tree->BulkLoad({{42, 99}}).ok());
  Result<uint64_t> v = f.tree->Get(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 99u);
  EXPECT_EQ(f.tree->size(), 1u);
  EXPECT_EQ(f.tree->height(), 1u);
}

TEST(BPlusTreeTest, BulkLoadBuildsDeepTree) {
  TreeFixture f(256);  // tiny pages -> deep tree
  ASSERT_TRUE(
      f.tree->BulkLoad(Sequence(5000, 7, [](uint64_t k) { return k; })).ok());
  EXPECT_GT(f.tree->height(), 2u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(BPlusTreeTest, FloorEntrySemantics) {
  TreeFixture f(4096);
  ASSERT_TRUE(f.tree->BulkLoad({{10, 100}, {20, 200}, {30, 300}}).ok());
  EXPECT_TRUE(f.tree->FloorEntry(5).status().IsNotFound());
  EXPECT_EQ(f.tree->FloorEntry(10).value().first, 10u);
  EXPECT_EQ(f.tree->FloorEntry(15).value().first, 10u);
  EXPECT_EQ(f.tree->FloorEntry(20).value().first, 20u);
  EXPECT_EQ(f.tree->FloorEntry(29).value().first, 20u);
  EXPECT_EQ(f.tree->FloorEntry(1000).value().first, 30u);
  EXPECT_EQ(f.tree->FloorEntry(1000).value().second, 300u);
}

TEST(BPlusTreeTest, FloorEntryAcrossLeafBoundaries) {
  TreeFixture f(256);
  // Dense even keys; floor of odd probes must be probe-1 everywhere,
  // including at leaf boundaries.
  const uint64_t n = 2000;
  ASSERT_TRUE(
      f.tree->BulkLoad(Sequence(n, 2, [](uint64_t k) { return k / 2; })).ok());
  for (uint64_t probe = 1; probe < 2 * n; probe += 97) {
    auto fl = f.tree->FloorEntry(probe);
    ASSERT_TRUE(fl.ok());
    EXPECT_EQ(fl.value().first, probe - (probe % 2 == 0 ? 0 : 1));
  }
}

TEST(BPlusTreeTest, ScanRange) {
  TreeFixture f(4096);
  auto plus_one = [](uint64_t k) { return k + 1; };
  ASSERT_TRUE(f.tree->BulkLoad(Sequence(100, 1, plus_one)).ok());
  std::vector<uint64_t> keys;
  ASSERT_TRUE(f.tree->Scan(10, 19, [&](uint64_t k, uint64_t v) {
    EXPECT_EQ(v, k + 1);
    keys.push_back(k);
    return true;
  }).ok());
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), 10u);
  EXPECT_EQ(keys.back(), 19u);
}

TEST(BPlusTreeTest, ScanEarlyStop) {
  TreeFixture f(4096);
  ASSERT_TRUE(
      f.tree->BulkLoad(Sequence(100, 1, [](uint64_t k) { return k; })).ok());
  int seen = 0;
  ASSERT_TRUE(f.tree->Scan(0, 99, [&](uint64_t, uint64_t) {
    return ++seen < 5;
  }).ok());
  EXPECT_EQ(seen, 5);
}

TEST(BPlusTreeTest, BulkLoadThenLookups) {
  TreeFixture f(512);
  std::vector<std::pair<uint64_t, uint64_t>> data;
  for (uint64_t i = 0; i < 10000; ++i) data.emplace_back(i * 3, i);
  ASSERT_TRUE(f.tree->BulkLoad(data).ok());
  EXPECT_EQ(f.tree->size(), 10000u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
  for (uint64_t i = 0; i < 10000; i += 37) {
    EXPECT_EQ(f.tree->Get(i * 3).value(), i);
  }
  EXPECT_TRUE(f.tree->Get(1).status().IsNotFound());
  EXPECT_EQ(f.tree->FloorEntry(4).value().first, 3u);
}

TEST(BPlusTreeTest, BulkLoadRejectsUnsortedAndNonEmpty) {
  TreeFixture f(4096);
  EXPECT_TRUE(f.tree->BulkLoad({{5, 0}, {5, 1}}).IsInvalidArgument());
  EXPECT_TRUE(f.tree->BulkLoad({{5, 0}, {3, 1}}).IsInvalidArgument());
  ASSERT_TRUE(f.tree->BulkLoad({{1, 1}}).ok());
  EXPECT_TRUE(f.tree->BulkLoad({{2, 2}}).IsInvalidArgument());
}

TEST(BPlusTreeTest, BulkLoadEmptyIsOk) {
  TreeFixture f(4096);
  EXPECT_TRUE(f.tree->BulkLoad({}).ok());
  EXPECT_EQ(f.tree->size(), 0u);
}

TEST(BPlusTreeTest, PersistsAcrossReopen) {
  auto file = PagedFile::CreateInMemory(512);
  {
    BufferManager bm(64 * 512, 512);
    FileId fid = bm.RegisterFile(file.get());
    auto tree = std::move(BPlusTree::Create(&bm, fid).value());
    ASSERT_TRUE(
        tree->BulkLoad(Sequence(1000, 1, [](uint64_t k) { return k * k; }))
            .ok());
    ASSERT_TRUE(bm.FlushAll().ok());
  }
  {
    BufferManager bm(64 * 512, 512);
    FileId fid = bm.RegisterFile(file.get());
    Result<std::unique_ptr<BPlusTree>> tree = BPlusTree::Open(&bm, fid);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree.value()->size(), 1000u);
    EXPECT_EQ(tree.value()->Get(31).value(), 961u);
    EXPECT_TRUE(tree.value()->CheckInvariants().ok());
  }
}

// ---- Property sweep: random key sets bulk-loaded and probed with
// random Get / FloorEntry / Scan calls vs std::map, across page sizes
// (small pages give deep trees; 4096 is the real config).
class BPlusTreeParamTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BPlusTreeParamTest, MatchesStdMapUnderRandomWorkload) {
  const uint32_t page_size = GetParam();
  Rng rng(page_size);  // distinct workload per page size
  for (int round = 0; round < 4; ++round) {
    TreeFixture f(page_size, /*pool_pages=*/128);
    std::map<uint64_t, uint64_t> shadow;
    const uint64_t n = rng.NextBounded(3000);
    while (shadow.size() < n) shadow[rng.NextBounded(100000)] = rng.Next();
    ASSERT_TRUE(f.tree
                    ->BulkLoad(std::vector<std::pair<uint64_t, uint64_t>>(
                        shadow.begin(), shadow.end()))
                    .ok());
    ASSERT_EQ(f.tree->size(), shadow.size());
    ASSERT_TRUE(f.tree->CheckInvariants().ok());
    for (int op = 0; op < 1500; ++op) {
      uint64_t key = rng.NextBounded(100100);
      double dice = rng.NextDouble();
      if (dice < 0.4) {
        Result<uint64_t> got = f.tree->Get(key);
        auto it = shadow.find(key);
        if (it == shadow.end()) {
          ASSERT_TRUE(got.status().IsNotFound());
        } else {
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got.value(), it->second);
        }
      } else if (dice < 0.8) {
        Result<std::pair<uint64_t, uint64_t>> fl = f.tree->FloorEntry(key);
        auto it = shadow.upper_bound(key);
        if (it == shadow.begin()) {
          ASSERT_TRUE(fl.status().IsNotFound());
        } else {
          --it;
          ASSERT_TRUE(fl.ok());
          ASSERT_EQ(fl.value().first, it->first);
          ASSERT_EQ(fl.value().second, it->second);
        }
      } else {
        const uint64_t hi = key + rng.NextBounded(2000);
        std::vector<std::pair<uint64_t, uint64_t>> scanned;
        ASSERT_TRUE(f.tree->Scan(key, hi, [&](uint64_t k, uint64_t v) {
          scanned.emplace_back(k, v);
          return true;
        }).ok());
        std::vector<std::pair<uint64_t, uint64_t>> expect(
            shadow.lower_bound(key), shadow.upper_bound(hi));
        ASSERT_EQ(scanned, expect);
      }
    }
    // Full scan must equal the shadow in order.
    std::vector<std::pair<uint64_t, uint64_t>> scanned;
    ASSERT_TRUE(f.tree->Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
      scanned.emplace_back(k, v);
      return true;
    }).ok());
    std::vector<std::pair<uint64_t, uint64_t>> expect(shadow.begin(),
                                                      shadow.end());
    EXPECT_EQ(scanned, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BPlusTreeParamTest,
                         ::testing::Values(128u, 256u, 512u, 1024u, 4096u));

}  // namespace
}  // namespace netclus
