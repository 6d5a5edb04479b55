// Tests for the paged file and the LRU buffer manager.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"

namespace netclus {
namespace {

constexpr uint32_t kPage = 4096;

std::vector<char> MakePage(char fill) {
  return std::vector<char>(kPage, fill);
}

TEST(PagedFileTest, InMemoryAllocateReadWrite) {
  auto f = PagedFile::CreateInMemory(kPage);
  EXPECT_EQ(f->num_pages(), 0u);
  Result<PageId> p0 = f->AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0.value(), 0u);
  Result<PageId> p1 = f->AllocatePage();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1.value(), 1u);
  EXPECT_EQ(f->num_pages(), 2u);

  std::vector<char> w = MakePage('x');
  ASSERT_TRUE(f->WritePage(1, w.data()).ok());
  std::vector<char> r(kPage);
  ASSERT_TRUE(f->ReadPage(1, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kPage), 0);
}

TEST(PagedFileTest, FreshPagesAreZeroed) {
  auto f = PagedFile::CreateInMemory(kPage);
  ASSERT_TRUE(f->AllocatePage().ok());
  std::vector<char> r(kPage, 'x');
  ASSERT_TRUE(f->ReadPage(0, r.data()).ok());
  for (char c : r) ASSERT_EQ(c, 0);
}

TEST(PagedFileTest, OutOfRangeAccessFails) {
  auto f = PagedFile::CreateInMemory(kPage);
  std::vector<char> buf(kPage);
  EXPECT_TRUE(f->ReadPage(0, buf.data()).IsOutOfRange());
  EXPECT_TRUE(f->WritePage(3, buf.data()).IsOutOfRange());
}

TEST(PagedFileTest, CountsIo) {
  auto f = PagedFile::CreateInMemory(kPage);
  ASSERT_TRUE(f->AllocatePage().ok());
  std::vector<char> buf(kPage);
  ASSERT_TRUE(f->ReadPage(0, buf.data()).ok());
  ASSERT_TRUE(f->ReadPage(0, buf.data()).ok());
  ASSERT_TRUE(f->WritePage(0, buf.data()).ok());
  EXPECT_EQ(f->stats().page_reads, 2u);
  EXPECT_EQ(f->stats().page_writes, 1u);
  EXPECT_EQ(f->stats().pages_allocated, 1u);
  f->ResetStats();
  EXPECT_EQ(f->stats().page_reads, 0u);
}

TEST(PagedFileTest, DiskBackedRoundTrip) {
  std::string path = std::filesystem::temp_directory_path() /
                     "netclus_paged_file_test.bin";
  {
    Result<std::unique_ptr<PagedFile>> f =
        PagedFile::Open(path, kPage, /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->AllocatePage().ok());
    ASSERT_TRUE(f.value()->AllocatePage().ok());
    std::vector<char> w = MakePage('q');
    ASSERT_TRUE(f.value()->WritePage(1, w.data()).ok());
  }
  {
    Result<std::unique_ptr<PagedFile>> f =
        PagedFile::Open(path, kPage, /*truncate=*/false);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f.value()->num_pages(), 2u);
    std::vector<char> r(kPage);
    ASSERT_TRUE(f.value()->ReadPage(1, r.data()).ok());
    EXPECT_EQ(r[100], 'q');
  }
  std::filesystem::remove(path);
}

TEST(PagedFileTest, RejectsMisalignedExistingFile) {
  std::string path =
      std::filesystem::temp_directory_path() / "netclus_misaligned.bin";
  {
    FILE* fp = fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    fputs("not a page multiple", fp);
    fclose(fp);
  }
  Result<std::unique_ptr<PagedFile>> f =
      PagedFile::Open(path, kPage, /*truncate=*/false);
  EXPECT_FALSE(f.ok());
  EXPECT_TRUE(f.status().IsCorruption());
  std::filesystem::remove(path);
}

TEST(PagedFileTest, OutOfRangeOpsCountNothing) {
  // Bounds violations are caller bugs, rejected before the I/O counters;
  // failed_reads/failed_writes track backend failures only (exercised in
  // fault_injection_test with an injecting backend).
  auto f = PagedFile::CreateInMemory(kPage);
  std::vector<char> buf(kPage);
  EXPECT_TRUE(f->ReadPage(5, buf.data()).IsOutOfRange());
  EXPECT_TRUE(f->WritePage(5, buf.data()).IsOutOfRange());
  EXPECT_EQ(f->stats().page_reads, 0u);
  EXPECT_EQ(f->stats().page_writes, 0u);
  EXPECT_EQ(f->stats().failed_reads, 0u);
  EXPECT_EQ(f->stats().failed_writes, 0u);
}

// ---------------------------------------------------------------- Buffer.

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = PagedFile::CreateInMemory(kPage);
    bm_ = std::make_unique<BufferManager>(4 * kPage, kPage);  // 4 frames
    fid_ = bm_->RegisterFile(file_.get());
  }
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferManager> bm_;
  FileId fid_ = 0;
};

TEST_F(BufferManagerTest, NewPageThenFetchHits) {
  Result<PageHandle> h = bm_->NewPage(fid_);
  ASSERT_TRUE(h.ok());
  PageId id = h.value().page_id();
  h.value().data()[0] = 'a';
  h.value().MarkDirty();
  h.value().Release();

  Result<PageHandle> again = bm_->FetchPage(fid_, id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().data()[0], 'a');
  EXPECT_GE(bm_->stats().hits, 1u);
}

TEST_F(BufferManagerTest, EvictsLeastRecentlyUsed) {
  // Fill 4 frames with pages 0..3, then touch 0 so 1 becomes the victim.
  for (int i = 0; i < 4; ++i) {
    Result<PageHandle> h = bm_->NewPage(fid_);
    ASSERT_TRUE(h.ok());
    h.value().data()[0] = static_cast<char>('0' + i);
    h.value().MarkDirty();
  }
  { ASSERT_TRUE(bm_->FetchPage(fid_, 0).ok()); }
  bm_->ResetStats();
  { ASSERT_TRUE(bm_->FetchPage(fid_, 0).ok()); }  // hit
  EXPECT_EQ(bm_->stats().misses, 0u);

  Result<PageHandle> p5 = bm_->NewPage(fid_);  // must evict page 1
  ASSERT_TRUE(p5.ok());
  p5.value().Release();
  bm_->ResetStats();
  { ASSERT_TRUE(bm_->FetchPage(fid_, 0).ok()); }  // still resident
  EXPECT_EQ(bm_->stats().misses, 0u);
  { ASSERT_TRUE(bm_->FetchPage(fid_, 1).ok()); }  // was evicted
  EXPECT_EQ(bm_->stats().misses, 1u);
}

TEST_F(BufferManagerTest, DirtyPageSurvivesEviction) {
  PageId first;
  {
    Result<PageHandle> h = bm_->NewPage(fid_);
    ASSERT_TRUE(h.ok());
    first = h.value().page_id();
    std::memcpy(h.value().data(), "persist", 8);
    h.value().MarkDirty();
  }
  // Evict it by filling the pool.
  for (int i = 0; i < 8; ++i) {
    Result<PageHandle> h = bm_->NewPage(fid_);
    ASSERT_TRUE(h.ok());
  }
  Result<PageHandle> back = bm_->FetchPage(fid_, first);
  ASSERT_TRUE(back.ok());
  EXPECT_STREQ(back.value().data(), "persist");
  EXPECT_GE(bm_->stats().dirty_writebacks, 1u);
}

TEST_F(BufferManagerTest, PinnedPagesAreNotEvicted) {
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 4; ++i) {
    Result<PageHandle> h = bm_->NewPage(fid_);
    ASSERT_TRUE(h.ok());
    pinned.push_back(std::move(h.value()));
  }
  EXPECT_EQ(bm_->pinned_frames(), 4u);
  Result<PageHandle> overflow = bm_->NewPage(fid_);
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInternal());
  pinned.clear();
  EXPECT_EQ(bm_->pinned_frames(), 0u);
  EXPECT_TRUE(bm_->NewPage(fid_).ok());
}

TEST_F(BufferManagerTest, MultiplePinsOnSamePage) {
  Result<PageHandle> h1 = bm_->NewPage(fid_);
  ASSERT_TRUE(h1.ok());
  PageId id = h1.value().page_id();
  Result<PageHandle> h2 = bm_->FetchPage(fid_, id);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1.value().data(), h2.value().data());
  h1.value().Release();
  EXPECT_EQ(bm_->pinned_frames(), 1u);  // still pinned once
  h2.value().Release();
  EXPECT_EQ(bm_->pinned_frames(), 0u);
}

TEST_F(BufferManagerTest, FlushAllWritesDirtyFrames) {
  Result<PageHandle> h = bm_->NewPage(fid_);
  ASSERT_TRUE(h.ok());
  std::memcpy(h.value().data(), "flushme", 8);
  h.value().MarkDirty();
  h.value().Release();
  ASSERT_TRUE(bm_->FlushAll().ok());
  std::vector<char> raw(kPage);
  ASSERT_TRUE(file_->ReadPage(0, raw.data()).ok());
  EXPECT_STREQ(raw.data(), "flushme");
}

TEST_F(BufferManagerTest, TwoFilesDoNotCollide) {
  auto other = PagedFile::CreateInMemory(kPage);
  FileId fid2 = bm_->RegisterFile(other.get());
  Result<PageHandle> a = bm_->NewPage(fid_);
  ASSERT_TRUE(a.ok());
  a.value().data()[0] = 'A';
  a.value().MarkDirty();
  a.value().Release();
  Result<PageHandle> b = bm_->NewPage(fid2);
  ASSERT_TRUE(b.ok());
  b.value().data()[0] = 'B';
  b.value().MarkDirty();
  b.value().Release();
  // Both files have page 0; contents must stay distinct.
  EXPECT_EQ(bm_->FetchPage(fid_, 0).value().data()[0], 'A');
  EXPECT_EQ(bm_->FetchPage(fid2, 0).value().data()[0], 'B');
  // `other` dies before the fixture's BufferManager: flush now so the
  // manager's destructor has nothing left to write into it.
  ASSERT_TRUE(bm_->FlushAll().ok());
}

TEST_F(BufferManagerTest, UnknownFileIdRejected) {
  EXPECT_FALSE(bm_->FetchPage(99, 0).ok());
  EXPECT_FALSE(bm_->NewPage(99).ok());
}

TEST_F(BufferManagerTest, MoveTransfersPin) {
  Result<PageHandle> h = bm_->NewPage(fid_);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(h.value());
  EXPECT_FALSE(h.value().valid());
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(bm_->pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(bm_->pinned_frames(), 0u);
}

// Randomized consistency: the buffered view must always match a shadow
// array, across evictions and writebacks.
TEST(BufferManagerPropertyTest, RandomWorkloadMatchesShadow) {
  auto file = PagedFile::CreateInMemory(kPage);
  BufferManager bm(8 * kPage, kPage);  // small pool forces evictions
  FileId fid = bm.RegisterFile(file.get());
  // Callers own the payload only; the footer is the pool's.
  const uint32_t usable = bm.usable_page_size();
  Rng rng(77);
  std::vector<std::vector<char>> shadow;
  for (int op = 0; op < 3000; ++op) {
    if (shadow.empty() || rng.NextBernoulli(0.05)) {
      Result<PageHandle> h = bm.NewPage(fid);
      ASSERT_TRUE(h.ok());
      shadow.emplace_back(usable, 0);
      continue;
    }
    PageId id = static_cast<PageId>(rng.NextBounded(shadow.size()));
    Result<PageHandle> h = bm.FetchPage(fid, id);
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(std::memcmp(h.value().data(), shadow[id].data(), usable), 0)
        << "page " << id << " diverged at op " << op;
    if (rng.NextBernoulli(0.5)) {
      char val = static_cast<char>(rng.NextBounded(256));
      size_t off = rng.NextBounded(usable);
      h.value().data()[off] = val;
      shadow[id][off] = val;
      h.value().MarkDirty();
    }
  }
}

}  // namespace
}  // namespace netclus
