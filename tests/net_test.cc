// End-to-end tests for the socket front end (net/tcp_server.h) and the
// blocking client (net/client.h) over loopback: served responses must
// be byte-identical to the in-process path, hostile bytes must poison
// only their own connection, the connection limit must refuse with the
// structured retry hint, and a concurrent multi-client soak (the tsan
// target) must survive mutations mid-flight with zero replay
// mismatches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "netclus.h"
#include "server/query.h"
#include "server/query_server.h"
#include "server/update.h"

namespace netclus {
namespace {

// A generated world the server takes over, plus copies for the inline
// reference path (same shape as tests/server_test.cc).
struct World {
  GeneratedNetwork gen;
  PointSet points;

  World(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
  }
};

// Everything a loopback test needs: a QueryServer with replay
// validation on, fronted by a TcpServer on an ephemeral port.
struct Loopback {
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<TcpServer> tcp;

  Loopback(const World& w, QueryServerOptions opts = {},
           TcpServerOptions net_opts = {}) {
    opts.validate_replay = true;
    if (opts.num_workers == 0) opts.num_workers = 2;
    Result<std::unique_ptr<QueryServer>> started =
        QueryServer::Start(w.gen.net, w.points, opts);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started).value();
    Result<std::unique_ptr<TcpServer>> front =
        TcpServer::Start(server.get(), net_opts);
    EXPECT_TRUE(front.ok()) << front.status().ToString();
    tcp = std::move(front).value();
  }

  ClientOptions client_options() const {
    ClientOptions c;
    c.port = tcp->port();
    return c;
  }
};

// Polls `pred` for up to two seconds — transport counters are bumped by
// reader threads, so tests observe them asynchronously.
bool Eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------
// Loopback correctness: the wire adds nothing and loses nothing.
// ---------------------------------------------------------------------

TEST(TcpServerLoopback, ResponsesAreByteIdenticalToInlinePath) {
  World w(300, 400, 17);
  ClusterSpec spec = MakeSpec(EpsLinkOptions{2.0, 2});
  InMemoryNetworkView inline_view(w.gen.net, w.points);
  Result<ClusterOutput> expect_clusters = RunClustering(inline_view, spec);
  ASSERT_TRUE(expect_clusters.ok());

  QueryServerOptions opts;
  opts.num_workers = 4;
  opts.cluster_spec = spec;
  Loopback loop(w, opts);
  Result<std::unique_ptr<QueryClient>> connected =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  QueryClient& client = *connected.value();

  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
    PointId b = static_cast<PointId>(rng.NextBounded(w.points.size()));
    QueryRequest req;
    switch (i % 4) {
      case 0:
        req = QueryRequest::PointDistance(a, b);
        break;
      case 1:
        req = QueryRequest::Range(a, 2.0);
        break;
      case 2:
        req = QueryRequest::NearestObject(a, 3);
        break;
      default:
        req = QueryRequest::ClusterMembership(a);
        break;
    }
    Result<QueryResponse> remote = client.Execute(req);
    ASSERT_TRUE(remote.ok()) << "request " << i << ": "
                             << remote.status().ToString();
    EXPECT_EQ(remote.value().epoch, 1u);
    if (req.kind == QueryKind::kClusterMembership) {
      EXPECT_EQ(remote.value().cluster_id,
                expect_clusters.value().clustering.assignment[a])
          << "point " << a;
      continue;
    }
    Result<QueryResponse> inline_r = ExecuteQuery(inline_view, nullptr, req);
    ASSERT_TRUE(inline_r.ok());
    // The serving stack's own replay comparator, doubles compared
    // exactly: the wire must not perturb a single bit.
    EXPECT_TRUE(ResponsePayloadsEqual(remote.value(), inline_r.value()))
        << "request " << i << " (" << QueryKindName(req.kind) << ")";
    ASSERT_EQ(remote.value().results.size(),
              inline_r.value().results.size());
    for (size_t j = 0; j < remote.value().results.size(); ++j) {
      EXPECT_EQ(remote.value().results[j].id,
                inline_r.value().results[j].id);
      EXPECT_EQ(std::memcmp(&remote.value().results[j].dist,
                            &inline_r.value().results[j].dist,
                            sizeof(double)),
                0);
    }
  }
  EXPECT_EQ(loop.server->stats().replay_mismatches, 0u);
  const TcpServerStats net = loop.tcp->stats();
  EXPECT_EQ(net.connections_accepted, 1u);
  EXPECT_GE(net.queries, 120u);
  EXPECT_EQ(net.corrupt_frames, 0u);
}

TEST(TcpServerLoopback, HealthzBypassesTheQueueAndReportsHealth) {
  World w(80, 100, 7);
  Loopback loop(w);
  Result<std::unique_ptr<QueryClient>> connected =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(connected.ok());
  Result<QueryResponse> hz = connected.value()->Healthz();
  ASSERT_TRUE(hz.ok()) << hz.status().ToString();
  EXPECT_EQ(hz.value().kind, QueryKind::kHealthz);
  EXPECT_EQ(hz.value().health, ServerHealth::kServing);
  EXPECT_EQ(hz.value().epoch, 1u);
  EXPECT_EQ(connected.value()->last_health(), ServerHealth::kServing);
  EXPECT_TRUE(Eventually(
      [&] { return loop.tcp->stats().healthz_probes >= 1; }));
}

TEST(TcpServerLoopback, InvalidRequestFailsWithoutCostingTheConnection) {
  World w(80, 100, 11);
  Loopback loop(w);
  ClientOptions copts = loop.client_options();
  copts.max_retries = 0;
  Result<std::unique_ptr<QueryClient>> connected = QueryClient::Connect(copts);
  ASSERT_TRUE(connected.ok());
  QueryClient& client = *connected.value();

  // Out-of-range point id: the server's validation verdict must come
  // back as a structured status, and the connection must survive it.
  Result<QueryResponse> bad =
      client.Execute(QueryRequest::PointDistance(0, w.points.size() + 5));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(bad.status().message().empty());

  Result<QueryResponse> good =
      client.Execute(QueryRequest::PointDistance(0, 1));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(client.stats().reconnects, 0u);
}

// ---------------------------------------------------------------------
// Hostile bytes: one connection burns, the server keeps serving.
// ---------------------------------------------------------------------

TEST(TcpServerLoopback, CorruptFramesAreRejectedWithoutCrashing) {
  World w(80, 100, 13);
  Loopback loop(w);

  // Raw garbage straight at the socket: 16 bytes that cannot be a
  // header.
  Result<Socket> raw = Socket::Dial("127.0.0.1", loop.tcp->port());
  ASSERT_TRUE(raw.ok());
  std::string garbage(64, 'x');
  ASSERT_TRUE(raw.value().SendAll(garbage.data(), garbage.size()).ok());

  // The server answers with a kStatus kCorruption frame, then hangs up.
  FrameReader reader;
  char buf[256];
  WireFrame frame;
  bool got = false;
  while (!got) {
    Result<size_t> n = raw.value().Recv(buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(n.value(), 0u) << "server closed without a status frame";
    reader.Append(buf, n.value());
    ASSERT_TRUE(reader.Next(&frame, &got).ok());
  }
  ASSERT_EQ(frame.type, FrameType::kStatus);
  WireStatus ws;
  ASSERT_TRUE(
      DecodeStatusPayload(frame.payload.data(), frame.payload.size(), &ws)
          .ok());
  EXPECT_EQ(ws.code, Status::Code::kCorruption);
  // ...then EOF.
  Result<size_t> eof = raw.value().Recv(buf, sizeof(buf));
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof.value(), 0u);

  EXPECT_TRUE(Eventually(
      [&] { return loop.tcp->stats().corrupt_frames >= 1; }));

  // A truncated frame followed by a hard close is equally harmless.
  Result<Socket> torn = Socket::Dial("127.0.0.1", loop.tcp->port());
  ASSERT_TRUE(torn.ok());
  const std::string valid = EncodeQueryFrame(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(torn.value().SendAll(valid.data(), valid.size() / 2).ok());
  torn.value().Close();

  // The server is still fully alive for well-behaved clients.
  Result<std::unique_ptr<QueryClient>> connected =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(connected.ok());
  Result<QueryResponse> r =
      connected.value()->Execute(QueryRequest::PointDistance(0, 1));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Eventually(
      [&] { return loop.tcp->stats().connections_closed >= 2; }));
}

TEST(TcpServerLoopback, ServerFrameTypesFromAClientAreProtocolErrors) {
  World w(80, 100, 19);
  Loopback loop(w);
  Result<Socket> raw = Socket::Dial("127.0.0.1", loop.tcp->port());
  ASSERT_TRUE(raw.ok());
  // A syntactically perfect kStatus frame — but clients don't send
  // those.
  WireStatus ws;
  ws.code = Status::Code::kInternal;
  ws.message = "confused peer";
  const std::string frame = EncodeStatusFrame(ws);
  ASSERT_TRUE(raw.value().SendAll(frame.data(), frame.size()).ok());
  EXPECT_TRUE(Eventually(
      [&] { return loop.tcp->stats().protocol_errors >= 1; }));
}

// ---------------------------------------------------------------------
// Resource bounds and lifecycle.
// ---------------------------------------------------------------------

TEST(TcpServerLoopback, ConnectionLimitRefusesWithRetryHint) {
  World w(80, 100, 23);
  TcpServerOptions net_opts;
  net_opts.max_connections = 1;
  net_opts.refuse_retry_after_ms = 40.0;
  Loopback loop(w, {}, net_opts);

  Result<std::unique_ptr<QueryClient>> first =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(first.ok());
  // Park a request through the first client so its connection is
  // certainly registered before the second one dials.
  ASSERT_TRUE(first.value()->Execute(QueryRequest::PointDistance(0, 1)).ok());

  Result<Socket> second = Socket::Dial("127.0.0.1", loop.tcp->port());
  ASSERT_TRUE(second.ok());
  FrameReader reader;
  char buf[256];
  WireFrame frame;
  bool got = false;
  while (!got) {
    Result<size_t> n = second.value().Recv(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(n.value(), 0u) << "refused without a status frame";
    reader.Append(buf, n.value());
    ASSERT_TRUE(reader.Next(&frame, &got).ok());
  }
  ASSERT_EQ(frame.type, FrameType::kStatus);
  WireStatus ws;
  ASSERT_TRUE(
      DecodeStatusPayload(frame.payload.data(), frame.payload.size(), &ws)
          .ok());
  EXPECT_EQ(ws.code, Status::Code::kUnavailable);
  ASSERT_TRUE(ws.has_retry_after);
  EXPECT_EQ(ws.retry_after_ms, 40.0);
  // The wire status rehydrates into the structured in-process form.
  ASSERT_TRUE(ws.ToStatus().retry_after_ms().has_value());
  EXPECT_GE(loop.tcp->stats().connections_refused, 1u);
}

TEST(TcpServerLoopback, IdleConnectionsAreReaped) {
  World w(80, 100, 29);
  TcpServerOptions net_opts;
  net_opts.idle_timeout_seconds = 0.05;
  Loopback loop(w, {}, net_opts);

  Result<Socket> silent = Socket::Dial("127.0.0.1", loop.tcp->port());
  ASSERT_TRUE(silent.ok());
  EXPECT_TRUE(Eventually([&] {
    const TcpServerStats s = loop.tcp->stats();
    return s.idle_disconnects >= 1 && s.open_connections == 0;
  }));
}

TEST(TcpServerLoopback, StopDrainsAndIsIdempotent) {
  World w(80, 100, 31);
  auto loop = std::make_unique<Loopback>(w);
  ClientOptions copts = loop->client_options();
  copts.max_retries = 1;
  copts.backoff_floor_ms = 1.0;
  Result<std::unique_ptr<QueryClient>> connected = QueryClient::Connect(copts);
  ASSERT_TRUE(connected.ok());
  ASSERT_TRUE(
      connected.value()->Execute(QueryRequest::PointDistance(0, 1)).ok());

  loop->tcp->Stop();
  loop->tcp->Stop();  // idempotent
  EXPECT_EQ(loop->tcp->stats().open_connections, 0u);

  // The parked client's next request fails cleanly (no hang): the
  // connection is gone and the port no longer answers.
  Result<QueryResponse> after =
      connected.value()->Execute(QueryRequest::PointDistance(0, 1));
  EXPECT_FALSE(after.ok());

  // QueryServer outlives its front end and still serves in-process.
  Result<QueryResponse> inproc =
      loop->server->Execute(QueryRequest::PointDistance(0, 1));
  EXPECT_TRUE(inproc.ok());
}

// ---------------------------------------------------------------------
// Client behavior.
// ---------------------------------------------------------------------

TEST(NetClient, BackoffPrefersTheServersRetryHint) {
  ClientOptions opts;
  opts.backoff_floor_ms = 2.0;
  opts.backoff_cap_ms = 100.0;
  // Hint present: used verbatim (clamped to the cap).
  EXPECT_EQ(QueryClient::BackoffDelayMs(
                Status::UnavailableWithRetry("busy", 37.0), 0, opts),
            37.0);
  EXPECT_EQ(QueryClient::BackoffDelayMs(
                Status::UnavailableWithRetry("busy", 5000.0), 0, opts),
            100.0);
  // No hint: floor * 2^attempt, capped.
  EXPECT_EQ(QueryClient::BackoffDelayMs(Status::Unavailable("busy"), 0, opts),
            2.0);
  EXPECT_EQ(QueryClient::BackoffDelayMs(Status::Unavailable("busy"), 2, opts),
            8.0);
  EXPECT_EQ(QueryClient::BackoffDelayMs(Status::Unavailable("busy"), 30, opts),
            100.0);
}

TEST(NetClient, RetriesThroughARefusalUntilASlotFrees) {
  World w(80, 100, 37);
  TcpServerOptions net_opts;
  net_opts.max_connections = 1;
  net_opts.refuse_retry_after_ms = 20.0;
  Loopback loop(w, {}, net_opts);

  // Occupy the only slot, then free it shortly after.
  Result<std::unique_ptr<QueryClient>> holder =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder.value()->Execute(QueryRequest::PointDistance(0, 1)).ok());
  std::thread release([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    holder.value().reset();  // closes the held connection
  });

  ClientOptions copts = loop.client_options();
  copts.max_retries = 50;
  copts.backoff_floor_ms = 10.0;
  Result<std::unique_ptr<QueryClient>> connected = QueryClient::Connect(copts);
  ASSERT_TRUE(connected.ok());
  Result<QueryResponse> r =
      connected.value()->Execute(QueryRequest::PointDistance(0, 1));
  release.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The request needed the backoff machinery: at least one retry (and
  // at least one reconnect, since the refusal closed the stream).
  EXPECT_GE(connected.value()->stats().retries, 1u);
}

// ---------------------------------------------------------------------
// Concurrency soak (the tsan target) + stats plumbing.
// ---------------------------------------------------------------------

TEST(NetSoak, ConcurrentClientsSurviveMutationsWithZeroMismatches) {
  World w(200, 250, 43);
  QueryServerOptions opts;
  opts.num_workers = 4;
  Loopback loop(w, opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> clean_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = loop.tcp->port();
      copts.max_retries = 5;
      Result<std::unique_ptr<QueryClient>> c = QueryClient::Connect(copts);
      if (!c.ok()) return;
      Rng rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
        QueryRequest req;
        switch (i % 3) {
          case 0:
            req = QueryRequest::PointDistance(
                a, static_cast<PointId>(rng.NextBounded(w.points.size())));
            break;
          case 1:
            req = QueryRequest::Range(a, 1.5);
            break;
          default:
            req = QueryRequest::NearestObject(a, 2);
            break;
        }
        Result<QueryResponse> r = c.value()->Execute(req);
        if (r.ok()) {
          if (r.value().epoch >= 1) ok_count.fetch_add(1);
        } else {
          clean_failures.fetch_add(1);
        }
      }
    });
  }
  // Mutations race the query traffic: each publishes a fresh epoch.
  std::thread mutator([&] {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      NodeId u = static_cast<NodeId>(2 * i);
      NodeId v = static_cast<NodeId>(2 * i + 1);
      (void)loop.server->ApplyUpdate(NetworkUpdate::AddEdge(u, v, 0.5));
      (void)loop.server->Flush();
    }
  });
  for (std::thread& t : clients) t.join();
  mutator.join();

  EXPECT_EQ(ok_count.load() + clean_failures.load(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(ok_count.load(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(loop.server->stats().replay_mismatches, 0u);
  const TcpServerStats net = loop.tcp->stats();
  EXPECT_GE(net.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_GE(net.frames_read, ok_count.load());
  EXPECT_EQ(net.corrupt_frames, 0u);
}

// A client-held ObjectId is a durable name: across repeated publishes
// that renumber the dense point ids, the same id must keep resolving to
// the same physical object — bitwise-identical distances and unchanged
// co-membership — over the wire, on one connection.
TEST(NetSoak, HeldObjectIdsResolveToTheSameObjectAcrossPublishes) {
  // Path 0-1-2-3 (edge weight 4). A and B sit 0.5 apart on edge {0,1}
  // and cluster together under eps 2; C is 11 away on edge {2,3} and
  // cannot join them. Boot identity: A,B,C are objects 0,1,2; the three
  // edges take 3..5; each mutation point below gets 6, 7, 8.
  World w(4, 1, 1);  // fixture shell; the real world is built below
  w.gen.net = Network(4);
  ASSERT_TRUE(w.gen.net.AddEdge(0, 1, 4.0).ok());
  ASSERT_TRUE(w.gen.net.AddEdge(1, 2, 4.0).ok());
  ASSERT_TRUE(w.gen.net.AddEdge(2, 3, 4.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.5, -1);  // A
  builder.Add(0, 1, 1.0, -1);  // B
  builder.Add(2, 3, 3.5, -1);  // C
  w.points = std::move(builder).Build(w.gen.net).value();

  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.cluster_spec = MakeSpec(EpsLinkOptions{2.0, 2});
  Loopback loop(w, opts);
  Result<std::unique_ptr<QueryClient>> connected =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  QueryClient& client = *connected.value();

  Result<QueryResponse> ab = client.Execute(QueryRequest::PointDistance(0, 1));
  Result<QueryResponse> ac = client.Execute(QueryRequest::PointDistance(0, 2));
  ASSERT_TRUE(ab.ok() && ac.ok());
  const double dist_ab = ab.value().distance;  // 0.5
  const double dist_ac = ac.value().distance;  // 11.0
  EXPECT_DOUBLE_EQ(dist_ab, 0.5);
  EXPECT_DOUBLE_EQ(dist_ac, 11.0);

  // Three publishes, each adding a point between A and B on edge {0,1}:
  // every round shifts B's and C's dense ids up by one, while the
  // metric (points are not nodes) is untouched.
  for (int round = 1; round <= 3; ++round) {
    double offset = 0.5 + 0.1 * static_cast<double>(4 - round);
    ASSERT_TRUE(
        loop.server->ApplyUpdate(NetworkUpdate::AddPoint(0, 1, offset, -1))
            .ok());
    ASSERT_TRUE(loop.server->Flush().ok());

    // Held ids resolve to the same positions: bitwise-equal distances.
    Result<QueryResponse> ab2 =
        client.Execute(QueryRequest::PointDistance(0, 1));
    Result<QueryResponse> ac2 =
        client.Execute(QueryRequest::PointDistance(0, 2));
    ASSERT_TRUE(ab2.ok() && ac2.ok());
    EXPECT_EQ(ab2.value().distance, dist_ab) << "round " << round;
    EXPECT_EQ(ac2.value().distance, dist_ac) << "round " << round;
    EXPECT_EQ(ab2.value().epoch, static_cast<uint64_t>(1 + round));

    // Co-membership holds: A and B still share a cluster, C is still
    // outside it (the cluster's numeric id may legitimately change).
    Result<QueryResponse> ma =
        client.Execute(QueryRequest::ClusterMembership(0));
    Result<QueryResponse> mb =
        client.Execute(QueryRequest::ClusterMembership(1));
    Result<QueryResponse> mc =
        client.Execute(QueryRequest::ClusterMembership(2));
    ASSERT_TRUE(ma.ok() && mb.ok() && mc.ok());
    EXPECT_EQ(ma.value().cluster_id, mb.value().cluster_id)
        << "round " << round;
    EXPECT_NE(ma.value().cluster_id, mc.value().cluster_id)
        << "round " << round;

    // The newest point is the closest to A and answers under a fresh,
    // monotonically allocated ObjectId — 6, then 7, then 8.
    Result<QueryResponse> nearest =
        client.Execute(QueryRequest::NearestObject(0, 1));
    ASSERT_TRUE(nearest.ok());
    ASSERT_EQ(nearest.value().results.size(), 1u);
    EXPECT_EQ(nearest.value().results[0].id, static_cast<uint64_t>(5 + round));
    EXPECT_DOUBLE_EQ(nearest.value().results[0].dist,
                     0.1 * static_cast<double>(4 - round));
  }
}

TEST(NetStats, CountersTrackTrafficWithoutDoubleCounting) {
  World w(80, 100, 47);
  Loopback loop(w);
  Result<std::unique_ptr<QueryClient>> connected =
      QueryClient::Connect(loop.client_options());
  ASSERT_TRUE(connected.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        connected.value()->Execute(QueryRequest::PointDistance(0, 1)).ok());
  }
  // The write-side counter bump lands after the response bytes do;
  // wait for the reader thread to catch up before reading.
  ASSERT_TRUE(Eventually(
      [&] { return loop.tcp->stats().frames_written >= 5; }));
  const TcpServerStats first = loop.tcp->stats();
  EXPECT_EQ(first.connections_accepted, 1u);
  EXPECT_GE(first.queries, 5u);
  EXPECT_GE(first.frames_read, 5u);
  EXPECT_GE(first.frames_written, 5u);
  EXPECT_GT(first.bytes_read, 0u);
  EXPECT_GT(first.bytes_written, 0u);
  // Reading again with no traffic in between sees the same counts.
  const TcpServerStats second = loop.tcp->stats();
  EXPECT_EQ(second.queries, first.queries);
  EXPECT_EQ(second.connections_accepted, 1u);
}

}  // namespace
}  // namespace netclus
