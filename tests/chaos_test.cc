// The chaos harness (DESIGN.md §13): seeded fault injection against the
// whole serving loop. Publish failures, worker stalls, deadline churn,
// and WAL faults run together in a soak that asserts the resilience
// contract — every accepted request resolves, replay validation never
// sees a torn epoch, drain accounting balances, and a server recovered
// from the WAL answers bit-identically to an uninterrupted one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/network.h"
#include "server/query.h"
#include "server/query_server.h"
#include "server/update.h"
#include "server/wal.h"
#include "storage/paged_file.h"
#include "support/fault_injection.h"

namespace netclus {
namespace {

// Same generated-world fixture as server_test.cc: the server copies the
// network and points, so the test keeps its own for reference servers.
struct World {
  GeneratedNetwork gen;
  PointSet points;

  World(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
  }
};

std::unique_ptr<QueryServer> StartOrDie(const World& w,
                                        const QueryServerOptions& opts) {
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return started.ok() ? std::move(started).value() : nullptr;
}

// A deterministic mixed query workload over the base point population
// (base ids stay valid across AddPoint renumbering — counts only grow).
std::vector<QueryRequest> MixedQueries(uint64_t seed, int n, PointId points) {
  Rng rng(seed);
  std::vector<QueryRequest> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(points));
    PointId b = static_cast<PointId>(rng.NextBounded(points));
    switch (i % 3) {
      case 0:
        out.push_back(QueryRequest::PointDistance(a, b));
        break;
      case 1:
        out.push_back(QueryRequest::Range(a, 2.5));
        break;
      default:
        out.push_back(QueryRequest::NearestObject(a, 3));
        break;
    }
  }
  return out;
}

// The soak: chaos-injected publish failures and worker stalls, deadline
// churn, and a live WAL — all at once, for several update rounds. The
// assertions are the resilience contract, not the luck of the seed:
// every future resolves (no hangs), shed work resolves as
// kDeadlineExceeded (never a garbage payload), replay validation stays
// clean, accounting balances, and the server still answers at the end.
TEST(ChaosSoakTest, SoakSurvivesChaosWithCleanReplayAndAccounting) {
  World w(150, 120, 11);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);

  QueryServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_depth = 256;
  opts.max_batch_size = 8;
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();
  opts.cancel_check_interval = 16;
  opts.chaos.seed = 5;
  opts.chaos.publish_failure_prob = 0.3;
  opts.chaos.worker_stall_prob = 0.25;
  opts.chaos.worker_stall_ms = 0.5;
  ASSERT_TRUE(opts.chaos.enabled());

  std::vector<NetworkUpdate> applied_updates;
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);

    std::vector<Edge> edges = w.gen.net.Edges();
    Rng rng(77);
    std::vector<std::future<Result<QueryResponse>>> futures;
    for (int round = 0; round < 6; ++round) {
      for (const QueryRequest& q :
           MixedQueries(1000 + round, 40, w.points.size())) {
        // A slice of every round runs with a tight deadline so shedding
        // and cancellation fire under the stalls.
        if (rng.NextBernoulli(0.2)) {
          futures.push_back(server->Submit(q.WithDeadline(1.0)));
        } else {
          futures.push_back(server->Submit(q));
        }
      }
      // Mutations ride along: points on existing edges always apply;
      // random edges sometimes collide with existing ones and are
      // rejected — a rejection must not disturb anything else.
      const Edge& e = edges[rng.NextBounded(edges.size())];
      NetworkUpdate add_point =
          NetworkUpdate::AddPoint(e.u, e.v, e.weight / 2, -1);
      if (server->ApplyUpdate(add_point).ok()) {
        applied_updates.push_back(add_point);
      }
      NetworkUpdate add_edge = NetworkUpdate::AddEdge(
          static_cast<NodeId>(rng.NextBounded(w.gen.net.num_nodes())),
          static_cast<NodeId>(rng.NextBounded(w.gen.net.num_nodes())),
          1.0 + static_cast<double>(round));
      if (server->ApplyUpdate(add_edge).ok()) {
        applied_updates.push_back(add_edge);
      }
      Status flushed = server->Flush();
      // A chaos-failed publish surfaces here; serving continues either
      // way, from the last good epoch.
      EXPECT_TRUE(flushed.ok() || flushed.IsInternal())
          << flushed.ToString();
    }

    size_t ok_count = 0;
    size_t deadline_count = 0;
    for (std::future<Result<QueryResponse>>& f : futures) {
      Result<QueryResponse> r = f.get();  // the no-hang assertion
      if (r.ok()) {
        ++ok_count;
      } else if (r.status().IsDeadlineExceeded()) {
        ++deadline_count;
      } else {
        ADD_FAILURE() << "unexpected terminal status: "
                      << r.status().ToString();
      }
    }
    EXPECT_EQ(ok_count + deadline_count, futures.size());
    EXPECT_GT(ok_count, 0u);

    // The server still answers after the storm, and a health probe
    // resolves without touching the queue.
    Result<QueryResponse> alive =
        server->Execute(QueryRequest::PointDistance(0, 1));
    EXPECT_TRUE(alive.ok()) << alive.status().ToString();
    Result<QueryResponse> probe = server->Execute(QueryRequest::Healthz());
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ(probe.value().kind, QueryKind::kHealthz);

    ServerStats stats = server->stats();
    EXPECT_EQ(stats.replay_mismatches, 0u);  // never a torn epoch
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.wal_records, stats.wal_recoveries +
                                     12u);  // 2 mutations x 6 rounds logged
    server->Stop();
    // Quiescent: every retired epoch was actually freed.
    stats = server->stats();
    EXPECT_EQ(stats.retired_epochs, 0u);
    EXPECT_EQ(stats.epochs_drained, stats.epochs_published - 1);
  }

  // Recovered-world equivalence: a server booted from the soak's WAL
  // answers exactly like a fresh chaos-free server that applied the
  // same accepted mutations inline.
  QueryServerOptions recover_opts;
  recover_opts.num_workers = 2;
  recover_opts.validate_replay = true;
  recover_opts.wal_file = wal_file.get();
  std::unique_ptr<QueryServer> recovered = StartOrDie(w, recover_opts);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->stats().wal_recoveries, 12u);

  QueryServerOptions ref_opts;
  ref_opts.num_workers = 2;
  std::unique_ptr<QueryServer> reference = StartOrDie(w, ref_opts);
  ASSERT_NE(reference, nullptr);
  for (const NetworkUpdate& u : applied_updates) {
    ASSERT_TRUE(reference->ApplyUpdate(u).ok());
  }
  ASSERT_TRUE(reference->Flush().ok());

  for (const QueryRequest& q : MixedQueries(4242, 60, w.points.size())) {
    Result<QueryResponse> got = recovered->Execute(q);
    Result<QueryResponse> want = reference->Execute(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(ResponsePayloadsEqual(got.value(), want.value()))
        << QueryKindName(q.kind) << " query on point " << q.a;
  }
}

// Kill-and-recover: stop a WAL-backed server mid-life, boot a successor
// over the same log, and demand bit-identical answers against the
// uninterrupted original.
TEST(ChaosSoakTest, KillAndRecoverServesBitIdenticalResponses) {
  World w(100, 80, 23);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();

  const std::vector<QueryRequest> probes = MixedQueries(9, 45, w.points.size());
  std::vector<Edge> edges = w.gen.net.Edges();
  std::vector<QueryResponse> before;
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server
                    ->ApplyUpdate(NetworkUpdate::AddPoint(
                        edges[0].u, edges[0].v, edges[0].weight / 4, 3))
                    .ok());
    ASSERT_TRUE(server
                    ->ApplyUpdate(NetworkUpdate::AddPoint(
                        edges[1].u, edges[1].v, edges[1].weight / 2, -1))
                    .ok());
    // A rejected mutation is logged before it is refused; replay must
    // reject it identically rather than corrupt the recovered world.
    EXPECT_FALSE(server
                     ->ApplyUpdate(NetworkUpdate::AddEdge(
                         edges[0].u, edges[0].v, 1.0))
                     .ok());
    ASSERT_TRUE(server->Flush().ok());
    for (const QueryRequest& q : probes) {
      Result<QueryResponse> r = server->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      before.push_back(std::move(r).value());
    }
  }  // server dies here; only the WAL file survives

  std::unique_ptr<QueryServer> revived = StartOrDie(w, opts);
  ASSERT_NE(revived, nullptr);
  EXPECT_EQ(revived->stats().wal_recoveries, 3u);  // incl. the rejected one
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<QueryResponse> r = revived->Execute(probes[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(ResponsePayloadsEqual(r.value(), before[i]))
        << "probe " << i << " (" << QueryKindName(probes[i].kind) << ")";
  }
}

// Non-finite mutations are logged before they are refused, like any
// rejected mutation, so a log may hold them — including one written
// before the finiteness checks existed. Replay must refuse them the
// same way: the recovered world has no NaN point and no infinite edge.
TEST(ChaosSoakTest, NonFiniteMutationsReplayAsRejected) {
  World w(60, 40, 29);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.wal_file = wal_file.get();
  std::vector<Edge> edges = w.gen.net.Edges();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  NodeId unjoined = 1;  // a node with no edge to node 0
  while (w.gen.net.EdgeWeight(0, unjoined) >= 0.0) ++unjoined;
  const NetworkUpdate bad[] = {
      NetworkUpdate::AddPoint(edges[0].u, edges[0].v, nan, -1),
      NetworkUpdate::AddEdge(0, unjoined, inf),
  };
  const NetworkUpdate good =
      NetworkUpdate::AddPoint(edges[2].u, edges[2].v, edges[2].weight / 2, -1);
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    for (const NetworkUpdate& u : bad) {
      EXPECT_TRUE(server->ApplyUpdate(u).IsInvalidArgument());
    }
    ASSERT_TRUE(server->ApplyUpdate(good).ok());
    ASSERT_TRUE(server->Flush().ok());
    EXPECT_EQ(server->stats().wal_records, 3u);
  }
  {
    auto wal = MutationWal::Open(wal_file.get());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(wal.value()->recovery().records.size(), 3u);
    EXPECT_TRUE(std::isnan(wal.value()->recovery().records[0].value));
    EXPECT_TRUE(std::isinf(wal.value()->recovery().records[1].value));
  }

  std::unique_ptr<QueryServer> revived = StartOrDie(w, opts);
  ASSERT_NE(revived, nullptr);
  EXPECT_EQ(revived->stats().wal_recoveries, 3u);
  // The only accepted mutation took the first free ObjectId; the
  // rejected ones took none, so no id past it names anything.
  const ObjectId first_free = w.points.size() + w.gen.net.num_edges();
  Result<QueryResponse> d =
      revived->Execute(QueryRequest::PointDistance(first_free, first_free));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().distance, 0.0);
  EXPECT_FALSE(
      revived->Execute(QueryRequest::PointDistance(first_free + 1, 0)).ok());
  for (PointId p = 0; p < w.points.size(); ++p) {
    Result<QueryResponse> r =
        revived->Execute(QueryRequest::PointDistance(p, first_free));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(std::isnan(r.value().distance)) << "point " << p;
  }
}

// Checkpoint + compaction: with `wal_checkpoint_every` set the server
// periodically serializes its whole world into the alternating slot
// files and truncates the log. A successor then boots from checkpoint
// plus delta suffix — and must answer bit-identically to both the
// original and a chaos-free reference, with every ObjectId preserved.
TEST(ChaosSoakTest, CheckpointCompactsTheLogAndRecoveryUsesIt) {
  World w(100, 80, 47);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_a = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_b = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();
  opts.checkpoint_file_a = ckpt_a.get();
  opts.checkpoint_file_b = ckpt_b.get();
  opts.wal_checkpoint_every = 2;

  std::vector<Edge> edges = w.gen.net.Edges();
  std::vector<NetworkUpdate> applied;
  const std::vector<QueryRequest> probes =
      MixedQueries(21, 40, w.points.size());
  std::vector<QueryResponse> before;
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    // Each blocking ApplyUpdate lands in its own updater round, so the
    // record count crosses the threshold on every second mutation:
    // checkpoints after records 2, 4, and 6, each followed by a
    // truncation back to an empty log.
    for (size_t i = 0; i < 6; ++i) {
      NetworkUpdate u = NetworkUpdate::AddPoint(
          edges[i].u, edges[i].v,
          edges[i].weight * static_cast<double>(i + 1) / 7.0,
          i % 2 == 0 ? -1 : static_cast<int32_t>(i));
      ASSERT_TRUE(server->ApplyUpdate(u).ok());
      applied.push_back(u);
    }
    // One more mutation past the last checkpoint: the delta suffix.
    NetworkUpdate tail =
        NetworkUpdate::AddPoint(edges[6].u, edges[6].v, edges[6].weight / 2, 5);
    ASSERT_TRUE(server->ApplyUpdate(tail).ok());
    applied.push_back(tail);
    ASSERT_TRUE(server->Flush().ok());

    ServerStats stats = server->stats();
    EXPECT_EQ(stats.wal_records, 7u);
    EXPECT_EQ(stats.checkpoints_written, 3u);
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    EXPECT_EQ(stats.wal_checkpoint_covers, 6u);
    // The three cycles were timed: the world's checkpoint, the slot
    // write and the truncation.
    EXPECT_GT(stats.mean_checkpoint_ms, 0.0);

    for (const QueryRequest& q : probes) {
      Result<QueryResponse> r = server->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      before.push_back(std::move(r).value());
    }
  }  // kill: only the WAL and the two checkpoint slots survive

  // The compaction actually happened on disk: the log holds just the
  // suffix, based past the six checkpointed records.
  {
    auto wal = MutationWal::Open(wal_file.get());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->start_seq(), 6u);
    EXPECT_EQ(wal.value()->num_records(), 1u);
  }

  std::unique_ptr<QueryServer> revived = StartOrDie(w, opts);
  ASSERT_NE(revived, nullptr);
  {
    ServerStats stats = revived->stats();
    EXPECT_EQ(stats.wal_recovered_from_checkpoint, 1u);
    EXPECT_EQ(stats.wal_recoveries, 1u);  // only the suffix replays
    EXPECT_EQ(stats.wal_checkpoint_covers, 6u);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<QueryResponse> r = revived->Execute(probes[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(ResponsePayloadsEqual(r.value(), before[i]))
        << "probe " << i << " (" << QueryKindName(probes[i].kind) << ")";
  }

  // And against a chaos-free reference that applied the same mutations
  // inline — the checkpointed world is the real world, not a replica
  // that merely satisfies the original's probes.
  QueryServerOptions ref_opts;
  ref_opts.num_workers = 2;
  std::unique_ptr<QueryServer> reference = StartOrDie(w, ref_opts);
  ASSERT_NE(reference, nullptr);
  for (const NetworkUpdate& u : applied) {
    ASSERT_TRUE(reference->ApplyUpdate(u).ok());
  }
  ASSERT_TRUE(reference->Flush().ok());
  for (const QueryRequest& q : MixedQueries(314, 40, w.points.size())) {
    Result<QueryResponse> got = revived->Execute(q);
    Result<QueryResponse> want = reference->Execute(q);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(got.value(), want.value()))
        << QueryKindName(q.kind) << " query on point " << q.a;
  }
}

// A crash DURING a checkpoint write leaves that slot torn while the
// log — whose truncation only ever follows a durable checkpoint — still
// starts where the previous generation covers. Recovery must fall back
// to the surviving generation and replay the longer suffix.
TEST(ChaosSoakTest, TornNewestCheckpointFallsBackAndReplaysTheSuffix) {
  World w(80, 60, 53);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_a = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_b = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();
  opts.checkpoint_file_a = ckpt_a.get();
  opts.checkpoint_file_b = ckpt_b.get();
  opts.wal_checkpoint_every = 1;  // checkpoint after every mutation

  std::vector<Edge> edges = w.gen.net.Edges();
  std::vector<NetworkUpdate> updates = {
      NetworkUpdate::AddPoint(edges[0].u, edges[0].v, edges[0].weight / 2, -1),
      NetworkUpdate::AddPoint(edges[1].u, edges[1].v, edges[1].weight / 3, 2),
      NetworkUpdate::AddPoint(edges[2].u, edges[2].v, edges[2].weight / 4, -1),
      NetworkUpdate::AddPoint(edges[3].u, edges[3].v, edges[3].weight / 5, 7),
  };
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    // Two rounds: generation 1 (slot "b") covers seq 1, generation 2
    // (slot "a") covers seq 2, each truncating the log behind it.
    ASSERT_TRUE(server->ApplyUpdate(updates[0]).ok());
    ASSERT_TRUE(server->ApplyUpdate(updates[1]).ok());
    ASSERT_TRUE(server->Flush().ok());
    EXPECT_EQ(server->stats().checkpoints_written, 2u);
  }

  // Reconstruct the crash-mid-checkpoint state: generation 2's slot is
  // torn, and its truncation never happened — the log still starts at
  // seq 1 and holds updates[1..3] (the record generation 2 would have
  // covered, plus two appended after the crash).
  std::vector<char> page(ckpt_a->page_size());
  ASSERT_TRUE(ckpt_a->ReadPage(0, page.data()).ok());
  page[30] ^= 0x20;  // breaks the stream CRC
  ASSERT_TRUE(ckpt_a->WritePage(0, page.data()).ok());
  std::vector<char> header(wal_file->page_size(), 0);
  EncodeWalHeader(1, header.data());
  ASSERT_TRUE(wal_file->WritePage(0, header.data()).ok());
  {
    auto wal = MutationWal::Open(wal_file.get());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_EQ(wal.value()->start_seq(), 1u);
    for (size_t i = 1; i < updates.size(); ++i) {
      ASSERT_TRUE(wal.value()->Append(updates[i]).ok());
    }
  }

  std::unique_ptr<QueryServer> revived = StartOrDie(w, opts);
  ASSERT_NE(revived, nullptr);
  ServerStats stats = revived->stats();
  EXPECT_EQ(stats.wal_recovered_from_checkpoint, 1u);
  EXPECT_EQ(stats.wal_recoveries, 3u);  // the generation-1 suffix
  EXPECT_EQ(stats.wal_checkpoint_covers, 1u);

  QueryServerOptions ref_opts;
  ref_opts.num_workers = 1;
  std::unique_ptr<QueryServer> reference = StartOrDie(w, ref_opts);
  ASSERT_NE(reference, nullptr);
  for (const NetworkUpdate& u : updates) {
    ASSERT_TRUE(reference->ApplyUpdate(u).ok());
  }
  ASSERT_TRUE(reference->Flush().ok());
  for (const QueryRequest& q : MixedQueries(77, 30, w.points.size())) {
    Result<QueryResponse> got = revived->Execute(q);
    Result<QueryResponse> want = reference->Execute(q);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(got.value(), want.value()))
        << QueryKindName(q.kind) << " query on point " << q.a;
  }
}

// When the only surviving checkpoint covers LESS of the log than
// compaction already dropped, part of history is simply gone — the
// server must refuse to boot a guessed world, exactly like a corrupt
// log middle.
TEST(ChaosSoakTest, CheckpointOlderThanTheCompactedLogRefusesToBoot) {
  World w(60, 40, 59);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_a = PagedFile::CreateInMemory(4096);
  std::unique_ptr<PagedFile> ckpt_b = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.wal_file = wal_file.get();
  opts.checkpoint_file_a = ckpt_a.get();
  opts.checkpoint_file_b = ckpt_b.get();
  opts.wal_checkpoint_every = 1;

  std::vector<Edge> edges = w.gen.net.Edges();
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(server
                    ->ApplyUpdate(NetworkUpdate::AddPoint(
                        edges[0].u, edges[0].v, edges[0].weight / 2, -1))
                    .ok());
    ASSERT_TRUE(server
                    ->ApplyUpdate(NetworkUpdate::AddPoint(
                        edges[1].u, edges[1].v, edges[1].weight / 3, 1))
                    .ok());
    ASSERT_TRUE(server->Flush().ok());
    EXPECT_EQ(server->stats().checkpoints_written, 2u);
  }

  // Tear generation 2 (slot "a"). The log was already truncated to
  // start_seq 2 behind it, and generation 1 only covers seq 1: the
  // record at seq 1 exists nowhere anymore.
  std::vector<char> page(ckpt_a->page_size());
  ASSERT_TRUE(ckpt_a->ReadPage(0, page.data()).ok());
  page[30] ^= 0x20;
  ASSERT_TRUE(ckpt_a->WritePage(0, page.data()).ok());

  Result<std::unique_ptr<QueryServer>> refused =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCorruption()) << refused.status().ToString();
}

// A torn final record (the classic crash mid-append) silently truncates
// to the prefix: the revived server equals a reference that never saw
// the torn mutation.
TEST(ChaosSoakTest, TornWalTailDropsOnlyTheTornMutation) {
  World w(80, 60, 31);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();

  std::vector<Edge> edges = w.gen.net.Edges();
  std::vector<NetworkUpdate> updates = {
      NetworkUpdate::AddPoint(edges[0].u, edges[0].v, edges[0].weight / 2, -1),
      NetworkUpdate::AddPoint(edges[2].u, edges[2].v, edges[2].weight / 4, 1),
      NetworkUpdate::AddPoint(edges[4].u, edges[4].v, edges[4].weight / 3, -1),
  };
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    for (const NetworkUpdate& u : updates) {
      ASSERT_TRUE(server->ApplyUpdate(u).ok());
    }
    ASSERT_TRUE(server->Flush().ok());
  }
  // Tear the last record: only its first 16 bytes reached the medium.
  // Records live on page 1 (page 0 is the log header).
  std::vector<char> page(wal_file->page_size());
  ASSERT_TRUE(wal_file->ReadPage(1, page.data()).ok());
  std::memset(page.data() + 2 * MutationWal::kRecordSize + 16, 0,
              MutationWal::kRecordSize - 16);
  ASSERT_TRUE(wal_file->WritePage(1, page.data()).ok());

  std::unique_ptr<QueryServer> revived = StartOrDie(w, opts);
  ASSERT_NE(revived, nullptr);
  EXPECT_EQ(revived->stats().wal_recoveries, 2u);

  QueryServerOptions ref_opts;
  ref_opts.num_workers = 1;
  std::unique_ptr<QueryServer> reference = StartOrDie(w, ref_opts);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->ApplyUpdate(updates[0]).ok());
  ASSERT_TRUE(reference->ApplyUpdate(updates[1]).ok());
  ASSERT_TRUE(reference->Flush().ok());

  for (const QueryRequest& q : MixedQueries(55, 30, w.points.size())) {
    Result<QueryResponse> got = revived->Execute(q);
    Result<QueryResponse> want = reference->Execute(q);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(got.value(), want.value()));
  }
}

// Damage in the log *middle* is not a crash tail; the server must
// refuse to boot a guessed world.
TEST(ChaosSoakTest, CorruptWalMiddleFailsStart) {
  World w(60, 40, 37);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.wal_file = wal_file.get();

  std::vector<Edge> edges = w.gen.net.Edges();
  {
    std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
    ASSERT_NE(server, nullptr);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(server
                      ->ApplyUpdate(NetworkUpdate::AddPoint(
                          edges[static_cast<size_t>(i)].u,
                          edges[static_cast<size_t>(i)].v,
                          edges[static_cast<size_t>(i)].weight / 2, -1))
                      .ok());
    }
    ASSERT_TRUE(server->Flush().ok());
  }
  std::vector<char> page(wal_file->page_size());
  ASSERT_TRUE(wal_file->ReadPage(1, page.data()).ok());
  page[20] ^= 0x01;  // rot inside record 0, records 1..2 still valid
  ASSERT_TRUE(wal_file->WritePage(1, page.data()).ok());

  Result<std::unique_ptr<QueryServer>> refused =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCorruption()) << refused.status().ToString();
}

// A WAL whose tail cannot even be scrubbed latches broken: mutations
// are refused, health degrades, but queries keep serving the last good
// epoch.
TEST(ChaosSoakTest, BrokenWalDegradesButKeepsServing) {
  World w(60, 40, 41);
  std::unique_ptr<PagedFile> base = PagedFile::CreateInMemory(4096);
  FaultInjectionFile faulty(base.get());

  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.wal_file = &faulty;
  std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->CurrentHealth(), ServerHealth::kServing);

  // The first mutation's page write tears; every write after it (the
  // scrub included) fails permanently. Armed after Start so the log
  // header write at Open is unaffected.
  FaultEvent torn;
  torn.op = FaultOp::kWrite;
  torn.kind = FaultKind::kTornWrite;
  torn.op_index = faulty.write_ops();
  faulty.AddFault(torn);
  FaultEvent dead;
  dead.op = FaultOp::kWrite;
  dead.kind = FaultKind::kPermanentError;
  dead.op_index = faulty.write_ops() + 1;
  dead.count = UINT64_MAX;
  faulty.AddFault(dead);

  std::vector<Edge> edges = w.gen.net.Edges();
  Status first = server->ApplyUpdate(
      NetworkUpdate::AddPoint(edges[0].u, edges[0].v, 0.0, -1));
  EXPECT_TRUE(first.IsIOError()) << first.ToString();
  Status second = server->ApplyUpdate(
      NetworkUpdate::AddPoint(edges[1].u, edges[1].v, 0.0, -1));
  EXPECT_TRUE(second.IsUnavailable()) << second.ToString();

  // Not durable → not applied → not published.
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(server->current_epoch(), 1u);
  EXPECT_EQ(server->CurrentHealth(), ServerHealth::kDegraded);
  HealthReport report = server->Healthz();
  EXPECT_TRUE(report.wal_broken);
  EXPECT_EQ(report.health, ServerHealth::kDegraded);

  Result<QueryResponse> r = server->Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().health, ServerHealth::kDegraded);
  EXPECT_EQ(r.value().epoch, 1u);
}

// Repeated publish failures degrade health while queries keep serving
// the last good epoch; the epoch never advances to a half-built world.
TEST(ChaosSoakTest, RepeatedPublishFailuresDegradeButKeepServing) {
  World w(80, 60, 43);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  opts.degraded_publish_failures = 2;
  opts.chaos.seed = 17;
  opts.chaos.publish_failure_prob = 1.0;  // every publish round fails
  std::unique_ptr<QueryServer> server = StartOrDie(w, opts);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->CurrentHealth(), ServerHealth::kServing);

  std::vector<Edge> edges = w.gen.net.Edges();
  // Each blocking ApplyUpdate lands in its own updater round, so every
  // one costs a failed publish.
  ASSERT_TRUE(server
                  ->ApplyUpdate(NetworkUpdate::AddPoint(
                      edges[0].u, edges[0].v, edges[0].weight / 2, -1))
                  .ok());
  ASSERT_TRUE(server
                  ->ApplyUpdate(NetworkUpdate::AddPoint(
                      edges[1].u, edges[1].v, edges[1].weight / 2, -1))
                  .ok());
  Status flushed = server->Flush();
  EXPECT_TRUE(flushed.IsInternal()) << flushed.ToString();

  EXPECT_EQ(server->current_epoch(), 1u);  // last good epoch still serves
  EXPECT_EQ(server->CurrentHealth(), ServerHealth::kDegraded);
  HealthReport report = server->Healthz();
  EXPECT_GE(report.consecutive_publish_failures, 2u);
  EXPECT_FALSE(report.wal_broken);
  EXPECT_GE(server->stats().publish_failures, 2u);

  // The degraded verdict rides on both probe and payload responses.
  Result<QueryResponse> probe = server->Execute(QueryRequest::Healthz());
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().health, ServerHealth::kDegraded);
  Result<QueryResponse> r = server->Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().health, ServerHealth::kDegraded);
  EXPECT_EQ(r.value().epoch, 1u);
}

}  // namespace
}  // namespace netclus
