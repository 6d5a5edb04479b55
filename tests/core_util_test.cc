// Tests for union-find, clustering normalization, dendrogram cuts and
// interesting-level detection.
#include <gtest/gtest.h>

#include "core/clustering.h"
#include "core/dendrogram.h"
#include "core/interesting_levels.h"
#include "core/union_find.h"

namespace netclus {
namespace {

TEST(UnionFindTest, StartsAsSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.Find(i), i);
    EXPECT_EQ(uf.SizeOf(i), 1u);
  }
}

TEST(UnionFindTest, UnionMergesAndCounts) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_TRUE(uf.Union(0, 2));
  EXPECT_EQ(uf.Find(1), uf.Find(3));
  EXPECT_EQ(uf.SizeOf(3), 4u);
  EXPECT_NE(uf.Find(4), uf.Find(0));
}

TEST(UnionFindTest, LargeChainCollapses) {
  const uint32_t n = 10000;
  UnionFind uf(n);
  for (uint32_t i = 0; i + 1 < n; ++i) EXPECT_TRUE(uf.Union(i, i + 1));
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_EQ(uf.SizeOf(0), n);
  EXPECT_EQ(uf.Find(0), uf.Find(n - 1));
}

TEST(NormalizeClusteringTest, RenumbersInFirstAppearanceOrder) {
  Clustering c;
  c.assignment = {7, 7, 3, kNoise, 3, 9};
  NormalizeClustering(&c);
  EXPECT_EQ(c.assignment, (std::vector<int>{0, 0, 1, kNoise, 1, 2}));
  EXPECT_EQ(c.num_clusters, 3);
}

TEST(NormalizeClusteringTest, MinSizeDropsSmallClusters) {
  Clustering c;
  c.assignment = {5, 5, 5, 8, 2, 2};
  NormalizeClustering(&c, 2);
  EXPECT_EQ(c.assignment, (std::vector<int>{0, 0, 0, kNoise, 1, 1}));
  EXPECT_EQ(c.num_clusters, 2);
}

TEST(NormalizeClusteringTest, NegativeAndSmallIdsAgree) {
  // Ids outside [0, n) take the compaction step; the result must match
  // the same partition numbered inside [0, n).
  Clustering wide;
  wide.assignment = {-7, 40, -7, kNoise, 40, -3, 40};
  NormalizeClustering(&wide, 2);
  Clustering narrow;
  narrow.assignment = {2, 0, 2, kNoise, 0, 1, 0};
  NormalizeClustering(&narrow, 2);
  EXPECT_EQ(wide.assignment, narrow.assignment);
  EXPECT_EQ(wide.assignment, (std::vector<int>{0, 1, 0, kNoise, 1, kNoise, 1}));
  EXPECT_EQ(wide.num_clusters, 2);
}

TEST(NormalizeClusteringTest, AllNoise) {
  Clustering c;
  c.assignment = {kNoise, kNoise};
  NormalizeClustering(&c);
  EXPECT_EQ(c.num_clusters, 0);
}

TEST(DendrogramTest, CutAtDistanceAppliesOnlyCheapMerges) {
  Dendrogram d(4);
  d.AddMerge(0, 1, 1.0);
  d.AddMerge(2, 3, 2.0);
  d.AddMerge(0, 2, 5.0);
  Clustering at0 = d.CutAtDistance(0.5);
  EXPECT_EQ(at0.num_clusters, 4);
  Clustering at1 = d.CutAtDistance(1.0);
  EXPECT_EQ(at1.num_clusters, 3);
  EXPECT_EQ(at1.assignment[0], at1.assignment[1]);
  Clustering at3 = d.CutAtDistance(3.0);
  EXPECT_EQ(at3.num_clusters, 2);
  Clustering at5 = d.CutAtDistance(5.0);
  EXPECT_EQ(at5.num_clusters, 1);
}

TEST(DendrogramTest, CutAtCountStopsEarly) {
  Dendrogram d(5);
  d.AddMerge(0, 1, 1.0);
  d.AddMerge(1, 2, 2.0);
  d.AddMerge(3, 4, 3.0);
  d.AddMerge(0, 3, 4.0);
  EXPECT_EQ(d.CutAtCount(5).num_clusters, 5);
  EXPECT_EQ(d.CutAtCount(3).num_clusters, 3);
  EXPECT_EQ(d.CutAtCount(2).num_clusters, 2);
  EXPECT_EQ(d.CutAtCount(1).num_clusters, 1);
  // Requesting more clusters than points is harmless.
  EXPECT_EQ(d.CutAtCount(10).num_clusters, 5);
}

TEST(DendrogramTest, CutAtCountUsesDistanceOrderEvenIfRecordedUnordered) {
  Dendrogram d(4);
  // delta pre-merges may be recorded out of order; CutAtCount must sort.
  d.AddMerge(2, 3, 0.2);
  d.AddMerge(0, 1, 0.1);
  d.AddMerge(1, 2, 5.0);
  Clustering c = d.CutAtCount(2);
  EXPECT_EQ(c.num_clusters, 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[2], c.assignment[3]);
  EXPECT_NE(c.assignment[0], c.assignment[2]);
}

TEST(DendrogramTest, CutAtLargeClusterCountIgnoresSingletons) {
  // Two "large" clusters of 3, several singletons, then a top merge.
  Dendrogram d(8);
  d.AddMerge(0, 1, 1.0);
  d.AddMerge(1, 2, 1.1);
  d.AddMerge(3, 4, 1.2);
  d.AddMerge(4, 5, 1.3);
  d.AddMerge(0, 3, 9.0);   // the two large clusters merge
  d.AddMerge(0, 6, 10.0);  // singletons join late
  d.AddMerge(6, 7, 11.0);
  Clustering two = d.CutAtLargeClusterCount(2, 3);
  EXPECT_EQ(two.num_clusters, 2);
  EXPECT_EQ(two.assignment[6], kNoise);
  Clustering one = d.CutAtLargeClusterCount(1, 3);
  EXPECT_EQ(one.num_clusters, 1);
  // Requesting more large clusters than ever exist returns the level
  // with the maximum achievable count.
  Clustering five = d.CutAtLargeClusterCount(5, 3);
  EXPECT_EQ(five.num_clusters, 2);
}

TEST(DendrogramTest, CutAtLargeClusterCountPrefersAssembledLevel) {
  // The count plateaus at 1 between merges; the cut must take the
  // latest state with the target count (most assembled).
  Dendrogram d(4);
  d.AddMerge(0, 1, 1.0);  // {0,1} large (min_size 2): count 1
  d.AddMerge(2, 3, 2.0);  // two large clusters: count 2
  d.AddMerge(0, 2, 3.0);  // count 1 again
  Clustering c = d.CutAtLargeClusterCount(1, 2);
  // Latest state with count 1 is after all merges.
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.assignment[0], c.assignment[3]);
}

TEST(DendrogramTest, CutMinSizeMarksNoise) {
  Dendrogram d(3);
  d.AddMerge(0, 1, 1.0);
  Clustering c = d.CutAtDistance(2.0, /*min_size=*/2);
  EXPECT_EQ(c.num_clusters, 1);
  EXPECT_EQ(c.assignment[2], kNoise);
}

TEST(InterestingLevelsTest, DetectsSharpJump) {
  Dendrogram d(30);
  // 20 merges around distance ~1 then a jump to 50 (3 merges).
  int a = 0;
  for (int i = 0; i < 20; ++i) {
    d.AddMerge(a, a + 1, 1.0 + 0.01 * i);
    ++a;
  }
  d.AddMerge(a, a + 1, 50.0);
  d.AddMerge(a + 1, a + 2, 51.0);
  InterestingLevelOptions opts;
  opts.window = 5;
  opts.factor = 10.0;
  std::vector<InterestingLevel> levels = DetectInterestingLevels(d, opts);
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0].merge_index, 20u);
  EXPECT_DOUBLE_EQ(levels[0].distance_after, 50.0);
  EXPECT_EQ(levels[0].clusters_remaining, 30u - 20u);
  EXPECT_GT(levels[0].jump_ratio, 10.0);
}

TEST(InterestingLevelsTest, MultipleResolutions) {
  Dendrogram d(40);
  int a = 0;
  auto run = [&](int count, double base, double step) {
    for (int i = 0; i < count; ++i) {
      d.AddMerge(a, a + 1, base + step * i);
      ++a;
    }
  };
  run(12, 0.1, 0.001);   // dense level
  run(12, 5.0, 0.001);   // medium level (jump 1: 0.1 -> 5)
  run(12, 200.0, 0.001); // sparse level (jump 2: 5 -> 200)
  InterestingLevelOptions opts;
  opts.window = 6;
  opts.factor = 20.0;
  std::vector<InterestingLevel> levels = DetectInterestingLevels(d, opts);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_LT(levels[0].distance_after, levels[1].distance_after);
}

TEST(InterestingLevelsTest, NoJumpNoLevels) {
  Dendrogram d(20);
  for (int i = 0; i < 19; ++i) d.AddMerge(i, i + 1, 1.0 + 0.1 * i);
  InterestingLevelOptions opts;
  opts.window = 5;
  opts.factor = 5.0;
  EXPECT_TRUE(DetectInterestingLevels(d, opts).empty());
}

TEST(InterestingLevelsTest, EmptyDendrogram) {
  Dendrogram d(1);
  EXPECT_TRUE(DetectInterestingLevels(d, InterestingLevelOptions{}).empty());
}

}  // namespace
}  // namespace netclus
