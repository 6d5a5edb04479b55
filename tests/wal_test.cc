// Tests for the mutation WAL (server/wal.h): record framing, append /
// recovery round trips, torn-tail truncation at every byte boundary of
// the final record, corrupt-middle refusal, and the fault-injection
// paths (transient retries, torn-write scrubbing, the broken() latch).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/update.h"
#include "server/wal.h"
#include "storage/paged_file.h"
#include "support/fault_injection.h"

namespace netclus {
namespace {

// Mutations with full-entropy payloads: a non-representable double and
// a negative label make every byte of the record load-bearing.
std::vector<NetworkUpdate> SampleUpdates(int n) {
  std::vector<NetworkUpdate> out;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      out.push_back(NetworkUpdate::AddEdge(i, i + 1, 0.1 * (i + 1) + 0.2));
    } else {
      out.push_back(NetworkUpdate::AddPoint(i, i + 1, 1.5 * i + 0.25, i - 2));
    }
  }
  return out;
}

Result<std::unique_ptr<MutationWal>> OpenOrDie(PagedFile* file) {
  Result<std::unique_ptr<MutationWal>> wal = MutationWal::Open(file);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return wal;
}

TEST(WalTest, EncodeDecodeRoundTripIsBitExact) {
  for (const NetworkUpdate& u : SampleUpdates(8)) {
    char rec[MutationWal::kRecordSize];
    EncodeWalRecord(u, rec);
    EXPECT_FALSE(WalSlotIsEmpty(rec));
    NetworkUpdate got;
    ASSERT_TRUE(DecodeWalRecord(rec, &got));
    EXPECT_EQ(got, u);
  }
}

TEST(WalTest, DecodeRejectsDamage) {
  char rec[MutationWal::kRecordSize];
  EncodeWalRecord(NetworkUpdate::AddEdge(1, 2, 3.0), rec);
  NetworkUpdate got;

  char bad[MutationWal::kRecordSize];
  // Any single-bit flip breaks the CRC (or the magic/padding checks).
  for (uint32_t byte = 0; byte < MutationWal::kRecordSize; ++byte) {
    std::memcpy(bad, rec, sizeof(bad));
    bad[byte] ^= 0x10;
    EXPECT_FALSE(DecodeWalRecord(bad, &got)) << "flipped byte " << byte;
  }
  // The all-zero slot is "unwritten", not a record.
  std::memset(bad, 0, sizeof(bad));
  EXPECT_TRUE(WalSlotIsEmpty(bad));
  EXPECT_FALSE(DecodeWalRecord(bad, &got));
}

TEST(WalTest, FreshLogIsEmptyAndAppendsRecover) {
  std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(4096);
  auto wal = OpenOrDie(file.get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal.value()->num_records(), 0u);
  EXPECT_TRUE(wal.value()->recovery().records.empty());
  EXPECT_EQ(wal.value()->recovery().records_dropped, 0u);

  const std::vector<NetworkUpdate> updates = SampleUpdates(5);
  for (const NetworkUpdate& u : updates) {
    ASSERT_TRUE(wal.value()->Append(u).ok());
  }
  EXPECT_EQ(wal.value()->num_records(), 5u);

  // A second open over the same file replays the exact sequence.
  auto again = OpenOrDie(file.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->recovery().records, updates);
  EXPECT_EQ(again.value()->recovery().records_dropped, 0u);
  EXPECT_EQ(again.value()->num_records(), 5u);
}

TEST(WalTest, AppendsSpanPagesAndRecoverInOrder) {
  // Two records per 64-byte page: ten appends cross four page
  // boundaries and leave a full final page (plus the header page).
  std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(64);
  auto wal = OpenOrDie(file.get());
  ASSERT_TRUE(wal.ok());
  const std::vector<NetworkUpdate> updates = SampleUpdates(10);
  for (const NetworkUpdate& u : updates) {
    ASSERT_TRUE(wal.value()->Append(u).ok());
  }
  EXPECT_EQ(file->num_pages(), 6u);

  auto again = OpenOrDie(file.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->recovery().records, updates);

  // The recovered log keeps appending where the old one stopped.
  NetworkUpdate extra = NetworkUpdate::AddEdge(100, 101, 7.5);
  ASSERT_TRUE(again.value()->Append(extra).ok());
  auto third = OpenOrDie(file.get());
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third.value()->recovery().records.size(), 11u);
  EXPECT_EQ(third.value()->recovery().records.back(), extra);
}

TEST(WalTest, PageSizeMustFrameRecords) {
  std::unique_ptr<PagedFile> tiny = PagedFile::CreateInMemory(16);
  EXPECT_TRUE(MutationWal::Open(tiny.get()).status().IsInvalidArgument());
  std::unique_ptr<PagedFile> ragged = PagedFile::CreateInMemory(48);
  EXPECT_TRUE(MutationWal::Open(ragged.get()).status().IsInvalidArgument());
  EXPECT_TRUE(MutationWal::Open(nullptr).status().IsInvalidArgument());
}

// The central torn-tail contract: whatever prefix of the final record
// survives a power cut (any byte boundary, including "nothing"),
// recovery yields exactly the records before it — never a partial or
// garbage record — and scrubs the file so the tail is clean.
TEST(WalTest, TornTailTruncatedAtEveryByteBoundary) {
  const std::vector<NetworkUpdate> updates = SampleUpdates(3);
  for (uint32_t cut = 0; cut < MutationWal::kRecordSize; ++cut) {
    std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(4096);
    {
      auto wal = OpenOrDie(file.get());
      ASSERT_TRUE(wal.ok());
      for (const NetworkUpdate& u : updates) {
        ASSERT_TRUE(wal.value()->Append(u).ok());
      }
    }
    // Tear the final record: only its first `cut` bytes reached disk.
    // Records live on page 1 (page 0 is the header).
    std::vector<char> page(file->page_size());
    ASSERT_TRUE(file->ReadPage(1, page.data()).ok());
    char* last = page.data() + 2 * MutationWal::kRecordSize;
    std::memset(last + cut, 0, MutationWal::kRecordSize - cut);
    ASSERT_TRUE(file->WritePage(1, page.data()).ok());

    auto recovered = MutationWal::Open(file.get());
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();
    std::vector<NetworkUpdate> prefix(updates.begin(), updates.end() - 1);
    EXPECT_EQ(recovered.value()->recovery().records, prefix) << "cut=" << cut;
    EXPECT_EQ(recovered.value()->num_records(), 2u) << "cut=" << cut;
    // cut=0 leaves an empty slot (nothing to drop); any surviving
    // prefix bytes are a torn record that must be counted and scrubbed.
    EXPECT_LE(recovered.value()->recovery().records_dropped, 1u);

    // The scrub is durable: a third open sees a clean tail, and the
    // next append lands exactly where the torn record died.
    NetworkUpdate replacement = NetworkUpdate::AddEdge(7, 8, 9.0);
    ASSERT_TRUE(recovered.value()->Append(replacement).ok());
    auto final_open = OpenOrDie(file.get());
    ASSERT_TRUE(final_open.ok());
    prefix.push_back(replacement);
    EXPECT_EQ(final_open.value()->recovery().records, prefix) << "cut=" << cut;
    EXPECT_EQ(final_open.value()->recovery().records_dropped, 0u);
  }
}

TEST(WalTest, TornTailAcrossWholePages) {
  // 64-byte pages, five records: the tail page holds records 4..5. Tear
  // the whole tail page plus the last record of the previous page.
  std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(64);
  const std::vector<NetworkUpdate> updates = SampleUpdates(5);
  {
    auto wal = OpenOrDie(file.get());
    ASSERT_TRUE(wal.ok());
    for (const NetworkUpdate& u : updates) {
      ASSERT_TRUE(wal.value()->Append(u).ok());
    }
  }
  std::vector<char> page(64);
  ASSERT_TRUE(file->ReadPage(2, page.data()).ok());
  std::memset(page.data() + MutationWal::kRecordSize + 8, 0,
              MutationWal::kRecordSize - 8);  // record 3 torn mid-way
  ASSERT_TRUE(file->WritePage(2, page.data()).ok());
  ASSERT_TRUE(file->ReadPage(3, page.data()).ok());
  std::memset(page.data(), 0, 8);  // record 4 torn at the head
  ASSERT_TRUE(file->WritePage(3, page.data()).ok());

  auto recovered = MutationWal::Open(file.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::vector<NetworkUpdate> prefix(updates.begin(), updates.begin() + 3);
  EXPECT_EQ(recovered.value()->recovery().records, prefix);
  EXPECT_EQ(recovered.value()->recovery().records_dropped, 2u);
}

TEST(WalTest, ValidRecordAfterInvalidIsCorruptionNotTruncation) {
  std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(4096);
  {
    auto wal = OpenOrDie(file.get());
    ASSERT_TRUE(wal.ok());
    for (const NetworkUpdate& u : SampleUpdates(3)) {
      ASSERT_TRUE(wal.value()->Append(u).ok());
    }
  }
  // Rot a byte in the *middle* record. Truncating here would silently
  // drop record 2, which is valid — recovery must refuse instead.
  std::vector<char> page(file->page_size());
  ASSERT_TRUE(file->ReadPage(1, page.data()).ok());
  page[MutationWal::kRecordSize + 21] ^= 0x04;
  std::vector<char> damaged = page;
  ASSERT_TRUE(file->WritePage(1, page.data()).ok());

  EXPECT_TRUE(MutationWal::Open(file.get()).status().IsCorruption());

  // A Corruption verdict leaves the file untouched: no scrub happened.
  ASSERT_TRUE(file->ReadPage(1, page.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), damaged.data(), page.size()), 0);
}

TEST(WalTest, OpenRetriesTransientAndShortReads) {
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  const std::vector<NetworkUpdate> updates = SampleUpdates(4);
  {
    auto wal = OpenOrDie(base.get());
    ASSERT_TRUE(wal.ok());
    for (const NetworkUpdate& u : updates) {
      ASSERT_TRUE(wal.value()->Append(u).ok());
    }
  }
  FaultInjectionFile faulty(base.get());
  FaultEvent transient;
  transient.op = FaultOp::kRead;
  transient.kind = FaultKind::kTransientError;
  transient.op_index = 0;
  transient.count = 3;
  faulty.AddFault(transient);
  FaultEvent short_read;
  short_read.op = FaultOp::kRead;
  short_read.kind = FaultKind::kShortRead;
  short_read.op_index = 3;
  short_read.count = 2;
  faulty.AddFault(short_read);

  auto wal = MutationWal::Open(&faulty);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal.value()->recovery().records, updates);
  EXPECT_EQ(faulty.fault_stats().transient_errors, 3u);
  EXPECT_EQ(faulty.fault_stats().short_reads, 2u);
}

TEST(WalTest, TornWriteIsScrubbedAndLogStaysClean) {
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  FaultInjectionFile faulty(base.get());
  auto wal = OpenOrDie(&faulty);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(NetworkUpdate::AddEdge(0, 1, 2.0)).ok());

  // Tear the second append's page write; the scrub (the next write)
  // goes through, so the log stays usable and un-broken.
  FaultEvent torn;
  torn.op = FaultOp::kWrite;
  torn.kind = FaultKind::kTornWrite;
  torn.op_index = faulty.write_ops();
  faulty.AddFault(torn);

  NetworkUpdate lost = NetworkUpdate::AddPoint(3, 4, 1.25, 7);
  Status s = wal.value()->Append(lost);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(wal.value()->broken());
  EXPECT_EQ(wal.value()->num_records(), 1u);
  EXPECT_EQ(faulty.fault_stats().torn_writes, 1u);

  // The failed record is gone without a trace; the retry lands cleanly.
  ASSERT_TRUE(wal.value()->Append(lost).ok());
  auto again = OpenOrDie(base.get());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value()->recovery().records.size(), 2u);
  EXPECT_EQ(again.value()->recovery().records[1], lost);
  EXPECT_EQ(again.value()->recovery().records_dropped, 0u);
}

TEST(WalTest, UnscrubbableFailureLatchesBroken) {
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  FaultInjectionFile faulty(base.get());
  auto wal = OpenOrDie(&faulty);
  ASSERT_TRUE(wal.ok());

  // The append's write tears AND the scrub write fails permanently: the
  // tail state on the backend is unknowable, so the log must latch
  // broken. (Open already spent writes on the header page, so the fault
  // indices anchor on the current write count.)
  FaultEvent torn;
  torn.op = FaultOp::kWrite;
  torn.kind = FaultKind::kTornWrite;
  torn.op_index = faulty.write_ops();
  faulty.AddFault(torn);
  FaultEvent dead;
  dead.op = FaultOp::kWrite;
  dead.kind = FaultKind::kPermanentError;
  dead.op_index = faulty.write_ops() + 1;
  faulty.AddFault(dead);

  Status s = wal.value()->Append(NetworkUpdate::AddEdge(0, 1, 2.0));
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(wal.value()->broken());

  // Every later append is refused up front — the fault schedule is
  // exhausted, so a write would "succeed", but the WAL no longer trusts
  // its own tail.
  Status refused = wal.value()->Append(NetworkUpdate::AddEdge(1, 2, 3.0));
  EXPECT_TRUE(refused.IsUnavailable()) << refused.ToString();
  EXPECT_EQ(wal.value()->num_records(), 0u);
}

// --- compaction -------------------------------------------------------

TEST(WalTest, TruncateToCompactsAndPreservesGlobalSequence) {
  std::unique_ptr<PagedFile> file = PagedFile::CreateInMemory(64);
  auto wal = OpenOrDie(file.get());
  ASSERT_TRUE(wal.ok());
  const std::vector<NetworkUpdate> updates = SampleUpdates(5);
  for (const NetworkUpdate& u : updates) {
    ASSERT_TRUE(wal.value()->Append(u).ok());
  }
  EXPECT_EQ(wal.value()->next_seq(), 5u);

  // Compaction must cover the whole log — a partial cover would drop
  // records no checkpoint holds.
  EXPECT_TRUE(wal.value()->TruncateTo(4).IsInvalidArgument());
  EXPECT_TRUE(wal.value()->TruncateTo(6).IsInvalidArgument());
  EXPECT_EQ(wal.value()->num_records(), 5u);

  ASSERT_TRUE(wal.value()->TruncateTo(5).ok());
  EXPECT_EQ(wal.value()->num_records(), 0u);
  EXPECT_EQ(wal.value()->start_seq(), 5u);
  EXPECT_EQ(wal.value()->next_seq(), 5u);
  EXPECT_EQ(file->num_pages(), 1u);  // header only; record pages dropped

  // Post-compaction appends continue the global sequence and survive a
  // reopen with the advanced base.
  NetworkUpdate extra = NetworkUpdate::AddEdge(50, 51, 2.75);
  ASSERT_TRUE(wal.value()->Append(extra).ok());
  auto again = OpenOrDie(file.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->start_seq(), 5u);
  EXPECT_EQ(again.value()->next_seq(), 6u);
  ASSERT_EQ(again.value()->recovery().records.size(), 1u);
  EXPECT_EQ(again.value()->recovery().records[0], extra);
}

TEST(WalTest, FailedHeaderRewriteDuringCompactionLatchesBroken) {
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  FaultInjectionFile faulty(base.get());
  auto wal = OpenOrDie(&faulty);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(NetworkUpdate::AddEdge(0, 1, 2.0)).ok());

  // The record-page drop succeeds but the header rewrite dies: the
  // on-disk sequence base is unknowable, so the log must latch broken.
  FaultEvent dead;
  dead.op = FaultOp::kWrite;
  dead.kind = FaultKind::kPermanentError;
  dead.op_index = faulty.write_ops();
  faulty.AddFault(dead);

  Status s = wal.value()->TruncateTo(wal.value()->next_seq());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(wal.value()->broken());
  EXPECT_TRUE(
      wal.value()->Append(NetworkUpdate::AddEdge(1, 2, 3.0)).IsUnavailable());
}

// --- checkpoints ------------------------------------------------------

// Full-entropy world: non-representable doubles, a negative label, and
// object ids past 2^32 make every serialized byte load-bearing.
CheckpointState SampleState(uint64_t generation) {
  CheckpointState s;
  s.generation = generation;
  s.covers_seq = 10 + generation;
  s.next_object_id = (uint64_t{1} << 33) + generation;
  s.num_nodes = 6;
  s.edges.push_back({0, 1, 0.1 + 0.2, 6});
  s.edges.push_back({1, 2, -4.25, 7});
  s.edges.push_back({2, 5, 1e-3 * static_cast<double>(generation + 1),
                     (uint64_t{1} << 32) + 8});
  s.points.push_back({0, 1, 0.15, -1, 0});
  s.points.push_back({1, 2, 2.5, 3, 1});
  return s;
}

void ExpectStatesEqual(const CheckpointState& got, const CheckpointState& want) {
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.covers_seq, want.covers_seq);
  EXPECT_EQ(got.next_object_id, want.next_object_id);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (size_t i = 0; i < want.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].u, want.edges[i].u) << "edge " << i;
    EXPECT_EQ(got.edges[i].v, want.edges[i].v) << "edge " << i;
    EXPECT_EQ(std::memcmp(&got.edges[i].weight, &want.edges[i].weight,
                          sizeof(double)),
              0)
        << "edge " << i;
    EXPECT_EQ(got.edges[i].oid, want.edges[i].oid) << "edge " << i;
  }
  ASSERT_EQ(got.points.size(), want.points.size());
  for (size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(got.points[i].u, want.points[i].u) << "point " << i;
    EXPECT_EQ(got.points[i].v, want.points[i].v) << "point " << i;
    EXPECT_EQ(std::memcmp(&got.points[i].offset, &want.points[i].offset,
                          sizeof(double)),
              0)
        << "point " << i;
    EXPECT_EQ(got.points[i].label, want.points[i].label) << "point " << i;
    EXPECT_EQ(got.points[i].oid, want.points[i].oid) << "point " << i;
  }
}

TEST(CheckpointTest, FreshStoreHasNoCheckpoint) {
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(64);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(64);
  CheckpointStore store(a.get(), b.get());
  CheckpointState state;
  bool found = true;
  ASSERT_TRUE(store.ReadLatest(&state, &found).ok());
  EXPECT_FALSE(found);
  CheckpointSlotInfo info = store.InspectSlot(0);
  EXPECT_FALSE(info.present);
  EXPECT_FALSE(info.valid);
}

TEST(CheckpointTest, WriteReadLatestRoundTripIsBitExact) {
  // 64-byte pages: the head fills page 0 exactly and the records span
  // two more pages, so the multi-page stream path is exercised.
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(64);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(64);
  CheckpointStore store(a.get(), b.get());
  CheckpointState want = SampleState(1);
  ASSERT_TRUE(store.Write(want).ok());
  CheckpointState got;
  bool found = false;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  ASSERT_TRUE(found);
  ExpectStatesEqual(got, want);
}

TEST(CheckpointTest, SlotsAlternateByGenerationParity) {
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(256);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(256);
  CheckpointStore store(a.get(), b.get());
  ASSERT_TRUE(store.Write(SampleState(1)).ok());  // odd → slot "b"
  ASSERT_TRUE(store.Write(SampleState(2)).ok());  // even → slot "a"
  CheckpointState got;
  bool found = false;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(got.generation, 2u);
  // Generation 2 landed in slot "a" and generation 1 is still intact in
  // slot "b".
  EXPECT_EQ(store.InspectSlot(0).generation, 2u);
  EXPECT_EQ(store.InspectSlot(1).generation, 1u);
  EXPECT_TRUE(store.InspectSlot(1).valid);
}

TEST(CheckpointTest, TornNewestSlotFallsBackToPreviousGeneration) {
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(64);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(64);
  CheckpointStore store(a.get(), b.get());
  ASSERT_TRUE(store.Write(SampleState(1)).ok());
  ASSERT_TRUE(store.Write(SampleState(2)).ok());

  // Rot one byte of a *body* page of generation 2 (slot "a"): the
  // stream CRC in the head must catch damage anywhere in the stream.
  std::vector<char> page(a->page_size());
  ASSERT_TRUE(a->ReadPage(1, page.data()).ok());
  page[17] ^= 0x40;
  ASSERT_TRUE(a->WritePage(1, page.data()).ok());

  CheckpointState got;
  bool found = false;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(got.generation, 1u);
  ExpectStatesEqual(got, SampleState(1));

  CheckpointSlotInfo torn = store.InspectSlot(0);
  EXPECT_TRUE(torn.present);
  EXPECT_FALSE(torn.valid);
  EXPECT_FALSE(torn.detail.empty());
  // The diagnostic still surfaces the unverified header fields.
  EXPECT_EQ(torn.generation, 2u);
}

TEST(CheckpointTest, BothSlotsTornReportsNotFound) {
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(256);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(256);
  CheckpointStore store(a.get(), b.get());
  ASSERT_TRUE(store.Write(SampleState(1)).ok());
  ASSERT_TRUE(store.Write(SampleState(2)).ok());
  for (PagedFile* slot : {a.get(), b.get()}) {
    std::vector<char> page(slot->page_size());
    ASSERT_TRUE(slot->ReadPage(0, page.data()).ok());
    page[30] ^= 0x01;
    ASSERT_TRUE(slot->WritePage(0, page.data()).ok());
  }
  CheckpointState got;
  bool found = true;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  EXPECT_FALSE(found);
}

TEST(CheckpointTest, FailedWriteLeavesPreviousCheckpointIntact) {
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(64);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(64);
  FaultInjectionFile faulty_a(a.get());
  CheckpointStore store(&faulty_a, b.get());
  ASSERT_TRUE(store.Write(SampleState(1)).ok());  // slot "b", clean file

  // Generation 2 targets slot "a", whose writes all fail: the write
  // errors out, and generation 1 still reads back from slot "b".
  FaultEvent dead;
  dead.op = FaultOp::kWrite;
  dead.kind = FaultKind::kPermanentError;
  dead.op_index = 0;
  dead.count = 1u << 20;
  faulty_a.AddFault(dead);
  EXPECT_FALSE(store.Write(SampleState(2)).ok());

  CheckpointState got;
  bool found = false;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  ASSERT_TRUE(found);
  ExpectStatesEqual(got, SampleState(1));
}

TEST(CheckpointTest, RewritingASlotShrinksItToTheNewStream) {
  // A big generation 1 followed by a small generation 3 reuses the same
  // slot; stale tail pages from the old stream must not confuse parsing.
  std::unique_ptr<PagedFile> a = PagedFile::CreateInMemory(64);
  std::unique_ptr<PagedFile> b = PagedFile::CreateInMemory(64);
  CheckpointStore store(a.get(), b.get());
  CheckpointState big = SampleState(1);
  for (uint32_t i = 0; i < 40; ++i) {
    big.edges.push_back({i % 6, (i + 1) % 6, 0.5 * i, 100 + i});
  }
  ASSERT_TRUE(store.Write(big).ok());
  CheckpointState small = SampleState(3);
  ASSERT_TRUE(store.Write(small).ok());
  CheckpointState got;
  bool found = false;
  ASSERT_TRUE(store.ReadLatest(&got, &found).ok());
  ASSERT_TRUE(found);
  ExpectStatesEqual(got, small);
}

TEST(WalTest, AppendRetriesTransientWriteFaults) {
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  FaultInjectionFile faulty(base.get());
  auto wal = OpenOrDie(&faulty);
  ASSERT_TRUE(wal.ok());

  FaultEvent flaky;
  flaky.op = FaultOp::kWrite;
  flaky.kind = FaultKind::kTransientError;
  flaky.op_index = 0;
  flaky.count = MutationWal::kMaxIoRetries - 1;
  faulty.AddFault(flaky);

  NetworkUpdate u = NetworkUpdate::AddEdge(5, 6, 7.0);
  ASSERT_TRUE(wal.value()->Append(u).ok());
  auto again = OpenOrDie(base.get());
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value()->recovery().records.size(), 1u);
  EXPECT_EQ(again.value()->recovery().records[0], u);
}

}  // namespace
}  // namespace netclus
