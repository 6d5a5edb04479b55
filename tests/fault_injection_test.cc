// Tests for the fault-injection storage harness: the FaultInjectionFile
// decorator, the BufferManager's transient-read retry policy, and the
// CRC32C page-checksum layer that turns silent corruption into
// Status::Corruption.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"
#include "support/fault_injection.h"

namespace netclus {
namespace {

constexpr uint32_t kPage = 4096;

std::vector<char> MakePage(char fill) {
  return std::vector<char>(kPage, fill);
}

// The bit-at-a-time CRC32C the table-driven one must equal.
uint32_t BitwiseCrc32c(uint32_t crc, const unsigned char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C.
  std::vector<char> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<unsigned char> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  const char* str = "123456789";
  EXPECT_EQ(Crc32c(str, 9), 0xE3069283u);
}

// Every length across the 8-byte word loop and its byte tail, at every
// alignment of the start.
TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> buf(300 + 8);
  uint32_t x = 12345;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(Crc32c(buf.data() + offset, n),
                BitwiseCrc32c(0, buf.data() + offset, n))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32c(data.data(), data.size());
  uint32_t split = Crc32cExtend(Crc32c(data.data(), 10), data.data() + 10,
                                data.size() - 10);
  EXPECT_EQ(one_shot, split);
  EXPECT_NE(one_shot, Crc32c(data.data(), data.size() - 1));
  // Chained over three pieces, at every pair of cut points.
  for (size_t a = 0; a <= data.size(); ++a) {
    for (size_t b = a; b <= data.size(); ++b) {
      uint32_t crc = Crc32cExtend(0, data.data(), a);
      crc = Crc32cExtend(crc, data.data() + a, b - a);
      crc = Crc32cExtend(crc, data.data() + b, data.size() - b);
      ASSERT_EQ(crc, one_shot) << "cuts at " << a << " and " << b;
    }
  }
}

// Crc32cExtend runs the SSE4.2 instruction where the CPU has it; the
// portable slice-by-8 path is the reference it must equal at every
// length from 0 to 10k (the word loop and its byte tail) and at every
// start alignment. On a CPU without SSE4.2 both sides run the portable
// path and the test checks nothing beyond the other Crc32c tests.
TEST(Crc32cTest, HardwarePathMatchesPortableAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 10000;
  std::vector<unsigned char> buf(kMaxLength + 8);
  uint32_t x = 977;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n = 0; n <= kMaxLength; ++n) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32cExtend(0, p, n), Crc32cExtendPortable(0, p, n))
          << "alignment " << align << ", length " << n;
    }
  }
  // A running checksum carried in: both paths extend it alike.
  for (uint32_t crc : {0x1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{4093}}) {
      ASSERT_EQ(Crc32cExtend(crc, buf.data() + 3, n),
                Crc32cExtendPortable(crc, buf.data() + 3, n))
          << "crc " << crc << ", length " << n;
    }
  }
}

// Extending is composition: the checksum of a || b is the checksum of a
// extended by b, on either path and across them, at every cut of a
// buffer that spans several words and an odd tail.
TEST(Crc32cTest, ExtendComposesOnBothPaths) {
  std::vector<unsigned char> buf(1029);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  const uint32_t whole = Crc32cExtendPortable(0, buf.data(), buf.size());
  ASSERT_EQ(Crc32c(buf.data(), buf.size()), whole);
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const unsigned char* tail = buf.data() + cut;
    const size_t rest = buf.size() - cut;
    const uint32_t hw = Crc32cExtend(0, buf.data(), cut);
    const uint32_t sw = Crc32cExtendPortable(0, buf.data(), cut);
    ASSERT_EQ(Crc32cExtend(hw, tail, rest), whole) << "cut " << cut;
    ASSERT_EQ(Crc32cExtendPortable(sw, tail, rest), whole) << "cut " << cut;
    ASSERT_EQ(Crc32cExtend(sw, tail, rest), whole) << "cut " << cut;
    ASSERT_EQ(Crc32cExtendPortable(hw, tail, rest), whole) << "cut " << cut;
  }
}

TEST(FaultInjectionFileTest, TransparentWithoutSchedule) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  ASSERT_TRUE(faulty.AllocatePage().ok());
  std::vector<char> w = MakePage('a');
  ASSERT_TRUE(faulty.WritePage(0, w.data()).ok());
  std::vector<char> r(kPage);
  ASSERT_TRUE(faulty.ReadPage(0, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kPage), 0);
  EXPECT_EQ(faulty.fault_stats().total(), 0u);
  EXPECT_EQ(base->num_pages(), 1u);
  EXPECT_EQ(faulty.num_pages(), 1u);
}

TEST(FaultInjectionFileTest, TransientErrorAtScheduledOpThenRecovers) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  ASSERT_TRUE(faulty.AllocatePage().ok());
  std::vector<char> w = MakePage('b');
  ASSERT_TRUE(faulty.WritePage(0, w.data()).ok());

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kTransientError;
  e.op_index = 1;  // second read only
  faulty.AddFault(e);

  std::vector<char> r(kPage);
  EXPECT_TRUE(faulty.ReadPage(0, r.data()).ok());
  EXPECT_TRUE(faulty.ReadPage(0, r.data()).IsUnavailable());
  EXPECT_TRUE(faulty.ReadPage(0, r.data()).ok());
  EXPECT_EQ(faulty.fault_stats().transient_errors, 1u);
  EXPECT_EQ(faulty.read_ops(), 3u);
  // The failed op shows up in the file's error counters too.
  EXPECT_EQ(faulty.stats().failed_reads, 1u);
}

TEST(FaultInjectionFileTest, BitFlipIsSilentAndDeterministic) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  ASSERT_TRUE(faulty.AllocatePage().ok());
  std::vector<char> w = MakePage(0);
  ASSERT_TRUE(faulty.WritePage(0, w.data()).ok());

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kBitFlip;
  e.op_index = 0;
  e.byte = 100;
  e.bit_mask = 0x10;
  faulty.AddFault(e);

  std::vector<char> r(kPage);
  ASSERT_TRUE(faulty.ReadPage(0, r.data()).ok());  // "succeeds"
  EXPECT_EQ(r[100], 0x10);                         // ... with a flipped bit
  ASSERT_TRUE(faulty.ReadPage(0, r.data()).ok());  // one-shot: next is clean
  EXPECT_EQ(r[100], 0);
  EXPECT_EQ(faulty.fault_stats().bit_flips, 1u);
}

TEST(FaultInjectionFileTest, TornWriteLeavesMixedPage) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  ASSERT_TRUE(faulty.AllocatePage().ok());
  std::vector<char> old_data = MakePage('o');
  ASSERT_TRUE(faulty.WritePage(0, old_data.data()).ok());

  FaultEvent e;
  e.op = FaultOp::kWrite;
  e.kind = FaultKind::kTornWrite;
  e.op_index = 1;
  faulty.AddFault(e);

  std::vector<char> new_data = MakePage('n');
  EXPECT_TRUE(faulty.WritePage(0, new_data.data()).IsIOError());
  std::vector<char> r(kPage);
  ASSERT_TRUE(faulty.ReadPage(0, r.data()).ok());
  EXPECT_EQ(r[0], 'n');              // prefix reached the medium
  EXPECT_EQ(r[kPage / 2], 'o');      // suffix kept the old content
  EXPECT_EQ(faulty.fault_stats().torn_writes, 1u);
}

TEST(FaultInjectionFileTest, PageRestrictedFaultSkipsOtherPages) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  ASSERT_TRUE(faulty.AllocatePage().ok());
  ASSERT_TRUE(faulty.AllocatePage().ok());

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kPermanentError;
  e.op_index = 0;
  e.count = UINT64_MAX;  // every read...
  e.page = 1;            // ...of page 1
  faulty.AddFault(e);

  std::vector<char> r(kPage);
  EXPECT_TRUE(faulty.ReadPage(0, r.data()).ok());
  EXPECT_TRUE(faulty.ReadPage(1, r.data()).IsIOError());
  EXPECT_TRUE(faulty.ReadPage(1, r.data()).IsIOError());
  EXPECT_TRUE(faulty.ReadPage(0, r.data()).ok());
}

TEST(FaultInjectionFileTest, RandomModeIsDeterministicInSeed) {
  auto run = [](uint64_t seed) {
    auto base = PagedFile::CreateInMemory(kPage);
    FaultInjectionFile faulty(base.get());
    (void)faulty.AllocatePage();
    std::vector<char> w(kPage, 7);
    (void)faulty.WritePage(0, w.data());
    faulty.EnableRandomFaults(seed, 0.3, 0.2);
    std::string outcome;
    std::vector<char> r(kPage);
    std::vector<char> clean(kPage, 7);
    for (int i = 0; i < 200; ++i) {
      Status s = faulty.ReadPage(0, r.data());
      outcome += !s.ok() ? 'e'
                 : std::memcmp(r.data(), clean.data(), kPage) == 0 ? 'k'
                                                                   : 'f';
    }
    return outcome;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
  EXPECT_NE(run(42).find('e'), std::string::npos);
  EXPECT_NE(run(42).find('f'), std::string::npos);
}

// --- BufferManager retry policy ------------------------------------------

TEST(BufferRetryTest, TransientReadErrorsAreRetriedWithBackoff) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  BufferManager bm(2 * kPage, kPage);
  std::vector<uint64_t> sleeps;
  bm.set_sleep_function([&](uint64_t us) { sleeps.push_back(us); });
  FileId fid = bm.RegisterFile(&faulty);
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 'x', bm.usable_page_size());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());

  // Fail the next two physical reads of page 0, then succeed.
  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kTransientError;
  e.op_index = 0;
  e.count = 2;
  faulty.AddFault(e);

  // Evict page 0 from the pool by touching other pages.
  (void)bm.NewPage(fid);
  (void)bm.NewPage(fid);

  Result<PageHandle> h = bm.FetchPage(fid, 0);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h.value().data()[0], 'x');
  EXPECT_EQ(bm.stats().read_retries, 2u);
  EXPECT_EQ(bm.stats().retries_exhausted, 0u);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], bm.retry_policy().backoff_micros);
  EXPECT_EQ(sleeps[1], 2 * bm.retry_policy().backoff_micros);
}

TEST(BufferRetryTest, ExhaustedRetriesSurfaceUnavailable) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  BufferManager bm(kPage, kPage);  // single frame: every fetch re-reads
  bm.set_sleep_function([](uint64_t) {});
  RetryPolicy policy;
  policy.max_retries = 2;
  bm.set_retry_policy(policy);
  FileId fid = bm.RegisterFile(&faulty);
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  (void)bm.NewPage(fid);  // evict page 0

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kTransientError;
  e.op_index = 0;
  e.count = UINT64_MAX;  // never recovers
  faulty.AddFault(e);

  Result<PageHandle> h = bm.FetchPage(fid, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsUnavailable());
  EXPECT_EQ(bm.stats().read_retries, 2u);
  EXPECT_EQ(bm.stats().retries_exhausted, 1u);
}

TEST(BufferRetryTest, PermanentIoErrorsAreNotRetried) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  BufferManager bm(kPage, kPage);
  bm.set_sleep_function([](uint64_t) {});
  FileId fid = bm.RegisterFile(&faulty);
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  (void)bm.NewPage(fid);  // evict page 0

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kPermanentError;
  e.op_index = 0;
  e.count = UINT64_MAX;
  faulty.AddFault(e);

  Result<PageHandle> h = bm.FetchPage(fid, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsIOError());
  EXPECT_EQ(bm.stats().read_retries, 0u);
}

// --- Checksummed pages ----------------------------------------------------

TEST(ChecksumTest, RoundTripThroughEvictionVerifies) {
  auto file = PagedFile::CreateInMemory(kPage);
  BufferManager bm(2 * kPage, kPage);
  FileId fid = bm.RegisterFile(file.get());
  const uint32_t usable = bm.usable_page_size();
  for (int i = 0; i < 4; ++i) {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 'A' + i, usable);
    h.value().MarkDirty();
  }  // 4 pages through a 2-frame pool: evictions + write-backs happened
  ASSERT_TRUE(bm.FlushAll().ok());
  for (PageId p = 0; p < 4; ++p) {
    auto h = bm.FetchPage(fid, p);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(h.value().data()[0], static_cast<char>('A' + p));
  }
  EXPECT_EQ(bm.stats().checksum_failures, 0u);
}

TEST(ChecksumTest, BitFlipOnDiskSurfacesAsCorruption) {
  auto file = PagedFile::CreateInMemory(kPage);
  BufferManager bm(kPage, kPage);  // one frame
  FileId fid = bm.RegisterFile(file.get());
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 'z', bm.usable_page_size());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  (void)bm.NewPage(fid);  // evict page 0

  // Flip one payload byte directly in the backing file.
  std::vector<char> raw(kPage);
  ASSERT_TRUE(file->ReadPage(0, raw.data()).ok());
  raw[123] ^= 0x04;
  ASSERT_TRUE(file->WritePage(0, raw.data()).ok());

  Result<PageHandle> h = bm.FetchPage(fid, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
  EXPECT_NE(h.status().message().find("page 0"), std::string::npos);
  EXPECT_EQ(bm.stats().checksum_failures, 1u);
}

TEST(ChecksumTest, SilentReadBitFlipFromInjectorIsCaught) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  BufferManager bm(kPage, kPage);
  FileId fid = bm.RegisterFile(&faulty);
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 1, bm.usable_page_size());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  (void)bm.NewPage(fid);  // evict page 0

  FaultEvent e;
  e.op = FaultOp::kRead;
  e.kind = FaultKind::kBitFlip;
  e.op_index = 0;
  e.byte = 7;
  e.bit_mask = 0x80;
  faulty.AddFault(e);

  Result<PageHandle> h = bm.FetchPage(fid, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
}

TEST(ChecksumTest, TornWriteIsDetectedOnNextRead) {
  auto base = PagedFile::CreateInMemory(kPage);
  FaultInjectionFile faulty(base.get());
  BufferManager bm(kPage, kPage);
  FileId fid = bm.RegisterFile(&faulty);
  {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 2, bm.usable_page_size());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());

  // Rewrite the page; the write-back is torn mid-page.
  FaultEvent e;
  e.op = FaultOp::kWrite;
  e.kind = FaultKind::kTornWrite;
  e.op_index = 1;
  faulty.AddFault(e);
  {
    auto h = bm.FetchPage(fid, 0);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 3, bm.usable_page_size());
    h.value().MarkDirty();
  }
  EXPECT_FALSE(bm.FlushAll().ok());  // the torn write reports IOError

  // A fresh pool reading the torn page must see Corruption, not garbage.
  BufferManager bm2(kPage, kPage);
  FileId fid2 = bm2.RegisterFile(base.get());
  Result<PageHandle> h = bm2.FetchPage(fid2, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
}

TEST(ChecksumTest, WrongPageIdInFooterIsCorruption) {
  // Simulate misdirected I/O: page 1's bytes written over page 0.
  auto file = PagedFile::CreateInMemory(kPage);
  BufferManager bm(4 * kPage, kPage);
  FileId fid = bm.RegisterFile(file.get());
  for (int i = 0; i < 2; ++i) {
    auto h = bm.NewPage(fid);
    ASSERT_TRUE(h.ok());
    std::memset(h.value().data(), 10 + i, bm.usable_page_size());
    h.value().MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());
  std::vector<char> page1(kPage);
  ASSERT_TRUE(file->ReadPage(1, page1.data()).ok());
  ASSERT_TRUE(file->WritePage(0, page1.data()).ok());

  BufferManager bm2(kPage, kPage);
  FileId fid2 = bm2.RegisterFile(file.get());
  Result<PageHandle> h = bm2.FetchPage(fid2, 0);
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
  // The same bytes at their true location still verify.
  h = bm2.FetchPage(fid2, 1);
  EXPECT_TRUE(h.ok()) << h.status().ToString();
}

}  // namespace
}  // namespace netclus
