// Tests for the clustering-as-a-service stack (src/server/): the
// unified query vocabulary and its inline execution path, the RCU
// EpochManager (publish/read/retire/free lifecycle, including the
// concurrent epoch-swap hammer the tsan mode targets), and the
// QueryServer — served-vs-inline bit-identity, replay validation,
// cluster-membership serving, update visibility across epochs,
// backpressure, and serving statistics — plus the served distance
// cache: LRU semantics, concurrency, and how ExecuteQueryInto reads and
// fills it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network.h"
#include "graph/network_distance.h"
#include "netclus.h"
#include "server/distance_cache.h"
#include "server/epoch_manager.h"
#include "server/query.h"
#include "server/query_server.h"
#include "storage/paged_file.h"

namespace netclus {
namespace {

// A generated world the server can take over, plus copies the tests
// keep for the inline reference path.
struct World {
  GeneratedNetwork gen;
  PointSet points;

  World(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
  }
};

// A path network 0-1-2-3 (each edge weight 4) with one point near each
// end: p0 on edge {0,1} at offset 0.5, p1 on edge {2,3} at offset 3.5.
// d(p0, p1) = 3.5 + 4 + 3.5 = 11 until a shortcut edge appears.
struct PathWorld {
  Network net;
  PointSet points;

  PathWorld() : net(4) {
    EXPECT_TRUE(net.AddEdge(0, 1, 4.0).ok());
    EXPECT_TRUE(net.AddEdge(1, 2, 4.0).ok());
    EXPECT_TRUE(net.AddEdge(2, 3, 4.0).ok());
    PointSetBuilder builder;
    builder.Add(0, 1, 0.5, -1);
    builder.Add(2, 3, 3.5, -1);
    points = std::move(builder).Build(net).value();
  }
};

// ---------------------------------------------------------------------
// The query vocabulary, inline path.
// ---------------------------------------------------------------------

TEST(QueryVocabularyTest, InlinePointDistanceRangeAndNearest) {
  PathWorld w;
  InMemoryNetworkView view(w.net, w.points);

  Result<QueryResponse> d =
      ExecuteQuery(view, nullptr, QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d.value().kind, QueryKind::kPointDistance);
  EXPECT_DOUBLE_EQ(d.value().distance, 11.0);
  EXPECT_EQ(d.value().epoch, 0u);  // inline runs carry no epoch

  // Range includes the center itself at distance 0, sorted by id.
  Result<QueryResponse> r =
      ExecuteQuery(view, nullptr, QueryRequest::Range(0, 11.5));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().results.size(), 2u);
  EXPECT_EQ(r.value().results[0].id, 0u);
  EXPECT_DOUBLE_EQ(r.value().results[0].dist, 0.0);
  EXPECT_EQ(r.value().results[1].id, 1u);
  EXPECT_DOUBLE_EQ(r.value().results[1].dist, 11.0);

  // Nearest excludes the center, sorted by ascending distance.
  Result<QueryResponse> n =
      ExecuteQuery(view, nullptr, QueryRequest::NearestObject(0, 1));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value().results.size(), 1u);
  EXPECT_EQ(n.value().results[0].id, 1u);
  EXPECT_DOUBLE_EQ(n.value().results[0].dist, 11.0);
}

TEST(QueryVocabularyTest, ValidationRejectsMalformedRequests) {
  PathWorld w;
  InMemoryNetworkView view(w.net, w.points);

  EXPECT_FALSE(
      ExecuteQuery(view, nullptr, QueryRequest::PointDistance(0, 99)).ok());
  EXPECT_FALSE(ExecuteQuery(view, nullptr, QueryRequest::Range(0, -1.0)).ok());
  EXPECT_FALSE(
      ExecuteQuery(view, nullptr, QueryRequest::NearestObject(0, 0)).ok());
  // Membership needs a cached clustering; inline with none must fail.
  EXPECT_FALSE(
      ExecuteQuery(view, nullptr, QueryRequest::ClusterMembership(0)).ok());
  EXPECT_FALSE(
      ValidateQueryRequest(view, QueryRequest::ClusterMembership(0), nullptr)
          .ok());
}

TEST(QueryVocabularyTest, PayloadEqualityIgnoresEpochOnly) {
  QueryResponse a;
  a.kind = QueryKind::kPointDistance;
  a.distance = 2.5;
  QueryResponse b = a;
  b.epoch = 42;  // serving metadata, not part of the answer
  EXPECT_TRUE(ResponsePayloadsEqual(a, b));
  b.distance = 2.5000001;
  EXPECT_FALSE(ResponsePayloadsEqual(a, b));
}

TEST(QueryVocabularyTest, KindNamesAreStable) {
  EXPECT_STREQ(QueryKindName(QueryKind::kPointDistance), "distance");
  EXPECT_STREQ(QueryKindName(QueryKind::kRange), "range");
  EXPECT_STREQ(QueryKindName(QueryKind::kNearestObject), "nearest");
  EXPECT_STREQ(QueryKindName(QueryKind::kClusterMembership), "membership");
  EXPECT_STREQ(QueryKindName(QueryKind::kHealthz), "healthz");
  EXPECT_STREQ(ServerHealthName(ServerHealth::kServing), "serving");
  EXPECT_STREQ(ServerHealthName(ServerHealth::kDegraded), "degraded");
  EXPECT_STREQ(ServerHealthName(ServerHealth::kStopping), "stopping");
}

TEST(QueryVocabularyTest, DeadlineValidationAndHealthzRejection) {
  PathWorld w;
  InMemoryNetworkView view(w.net, w.points);

  // Deadlines must be finite and non-negative; 0 (no deadline) is fine.
  QueryRequest ok = QueryRequest::PointDistance(0, 1);
  EXPECT_TRUE(ValidateQueryRequest(view, ok, nullptr).ok());
  EXPECT_TRUE(ValidateQueryRequest(view, ok.WithDeadline(5.0), nullptr).ok());
  EXPECT_FALSE(
      ValidateQueryRequest(view, ok.WithDeadline(-1.0), nullptr).ok());
  EXPECT_FALSE(ValidateQueryRequest(
                   view, ok.WithDeadline(std::nan("")), nullptr)
                   .ok());

  // kHealthz is an admission-path answer, never an executor query.
  EXPECT_FALSE(ValidateQueryRequest(view, QueryRequest::Healthz(), nullptr)
                   .ok());
  EXPECT_FALSE(ExecuteQuery(view, nullptr, QueryRequest::Healthz()).ok());

  // The inline path ignores a generous deadline entirely: payloads stay
  // bit-identical to the undeadlined run.
  Result<QueryResponse> plain =
      ExecuteQuery(view, nullptr, QueryRequest::PointDistance(0, 1));
  Result<QueryResponse> bounded = ExecuteQuery(
      view, nullptr, QueryRequest::PointDistance(0, 1).WithDeadline(1e4));
  ASSERT_TRUE(plain.ok() && bounded.ok());
  EXPECT_TRUE(ResponsePayloadsEqual(plain.value(), bounded.value()));
}

// ---------------------------------------------------------------------
// The served distance cache.
// ---------------------------------------------------------------------

TEST(DistanceCacheTest, LruSemanticsAndEviction) {
  DistanceCache cache(4, 1);  // one shard: deterministic LRU order
  double d = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 2, &d));
  cache.Store(1, 2, 1.5);
  cache.Store(2, 1, 2.5);  // same unordered pair: refresh, not insert
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(2, 1, &d));
  EXPECT_EQ(d, 2.5);

  cache.Store(3, 4, 3.0);
  cache.Store(5, 6, 4.0);
  cache.Store(7, 8, 5.0);
  EXPECT_EQ(cache.size(), 4u);
  ASSERT_TRUE(cache.Lookup(1, 2, &d));  // refresh {1,2}: now {3,4} is LRU
  cache.Store(9, 10, 6.0);              // evicts {3,4}
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.Lookup(3, 4, &d));
  EXPECT_TRUE(cache.Lookup(1, 2, &d));

  DistanceCache::Counters c = cache.counters();
  EXPECT_EQ(c.stores, 6u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_GE(c.hits, 3u);
  EXPECT_GE(c.misses, 2u);
}

// Matched by the tsan suite filter (run_all.sh tsan): concurrent writers
// and readers on a small cache force constant shard contention and
// eviction.
TEST(DistanceCacheTest, ConcurrentHammerKeepsValuesConsistent) {
  DistanceCache cache(128, 4);
  std::atomic<bool> bad_value{false};
  auto value_for = [](PointId a, PointId b) {
    return static_cast<double>(a < b ? a : b) * 1000.0 +
           static_cast<double>(a < b ? b : a);
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 20000; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(300));
        PointId b = static_cast<PointId>(rng.NextBounded(300));
        switch (i % 4) {
          case 0:
          case 1:
            cache.Store(a, b, value_for(a, b));
            break;
          case 2: {
            double d = 0.0;
            if (cache.Lookup(a, b, &d) && d != value_for(a, b)) {
              bad_value.store(true);
            }
            break;
          }
          default:
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(bad_value.load());
  EXPECT_LE(cache.size(), cache.capacity());
}

// kPointDistance through ExecuteQueryInto with a cache: the settled
// nodes and the cache counters each query leaves behind.
struct CachedDistanceRun {
  Status status;
  double distance = 0.0;
  uint64_t settled = 0;
};

CachedDistanceRun RunCachedDistance(const NetworkView& view,
                                    const FrozenGraph& frozen,
                                    TraversalWorkspace* ws,
                                    const DistanceCache* cache, ObjectId a,
                                    ObjectId b) {
  CachedDistanceRun run;
  QueryResponse out;
  const uint64_t before = LocalTraversalCounters().settled_nodes;
  run.status = ExecuteQueryInto(view, &frozen, QueryRequest::PointDistance(a, b),
                                ws, cache, nullptr, &out);
  run.settled = LocalTraversalCounters().settled_nodes - before;
  run.distance = out.distance;
  return run;
}

class DistanceCacheQueryTest : public ::testing::Test {
 protected:
  DistanceCacheQueryTest()
      : world_(300, 120, 61),
        view_(world_.gen.net, world_.points),
        frozen_(std::move(view_.Freeze()).value()),
        ws_(view_.num_nodes()) {}

  World world_;
  InMemoryNetworkView view_;
  FrozenGraph frozen_;
  TraversalWorkspace ws_;
};

TEST_F(DistanceCacheQueryTest, RepeatedAndReversedPairsHitWithoutSettling) {
  DistanceCache cache(1024);
  CachedDistanceRun cold =
      RunCachedDistance(view_, frozen_, &ws_, &cache, 3, 97);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_GT(cold.settled, 0u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().stores, 1u);

  for (auto [a, b] : {std::pair<ObjectId, ObjectId>{3, 97}, {97, 3}}) {
    CachedDistanceRun warm =
        RunCachedDistance(view_, frozen_, &ws_, &cache, a, b);
    ASSERT_TRUE(warm.status.ok());
    EXPECT_EQ(warm.settled, 0u) << a << " -> " << b;
    EXPECT_EQ(std::memcmp(&warm.distance, &cold.distance, sizeof(double)), 0)
        << a << " -> " << b;
  }
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().stores, 1u);
}

TEST_F(DistanceCacheQueryTest, SelfPairLeavesTheCacheUntouched) {
  DistanceCache cache(1024);
  CachedDistanceRun self = RunCachedDistance(view_, frozen_, &ws_, &cache, 5, 5);
  ASSERT_TRUE(self.status.ok());
  EXPECT_EQ(self.distance, 0.0);
  DistanceCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses + c.stores + c.evictions, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(DistanceCacheQueryTest, CancelledExpansionIsNotStored) {
  DistanceCache cache(1024);
  // A deadline already in the past, polled on every settle: the first
  // poll cancels the expansion.
  ws_.cancel.deadline = TraversalCancel::Clock::now() - std::chrono::seconds(1);
  ws_.cancel.check_interval = 1;
  CachedDistanceRun cancelled =
      RunCachedDistance(view_, frozen_, &ws_, &cache, 3, 97);
  EXPECT_TRUE(cancelled.status.IsDeadlineExceeded())
      << cancelled.status.ToString();
  EXPECT_EQ(cache.counters().stores, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // Disarmed, the same pair misses, computes and stores the exact value.
  ws_.cancel.deadline = TraversalCancel::kNoDeadline;
  CachedDistanceRun exact =
      RunCachedDistance(view_, frozen_, &ws_, &cache, 3, 97);
  ASSERT_TRUE(exact.status.ok());
  EXPECT_EQ(cache.counters().stores, 1u);
  double stored = 0.0;
  ASSERT_TRUE(cache.Lookup(97, 3, &stored));
  EXPECT_EQ(stored, exact.distance);
}

TEST_F(DistanceCacheQueryTest, NullCacheGivesTheExactDistance) {
  const NetworkView& view = view_;
  Rng rng(62);
  for (int i = 0; i < 50; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(world_.points.size()));
    PointId b = static_cast<PointId>(rng.NextBounded(world_.points.size()));
    CachedDistanceRun run =
        RunCachedDistance(view_, frozen_, &ws_, nullptr, a, b);
    ASSERT_TRUE(run.status.ok());
    TraversalWorkspace ws(view.num_nodes());
    double exact = PointNetworkDistance(view, view, a, b, &ws);
    EXPECT_EQ(std::memcmp(&run.distance, &exact, sizeof(double)), 0)
        << a << " -> " << b;
  }
}

// ---------------------------------------------------------------------
// EpochManager lifecycle.
// ---------------------------------------------------------------------

std::shared_ptr<const FrozenGraph> TinyGraph() {
  Network net(2);
  EXPECT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  return std::make_shared<const FrozenGraph>(
      FrozenGraph::Materialize(net, std::make_shared<const PointSet>()));
}

TEST(EpochManagerTest, PinnedEpochSurvivesPublishAndFreesOnRelease) {
  EpochManager m;
  EXPECT_EQ(m.Current(), nullptr);  // nothing published yet
  EXPECT_EQ(m.current_epoch(), 0u);
  EXPECT_EQ(m.retired_count(), 0u);

  EXPECT_EQ(m.Publish(TinyGraph(), nullptr), 1u);
  std::shared_ptr<const EpochSnapshot> pin = m.Current();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->epoch(), 1u);

  // Publishing epoch 2 retires epoch 1 but must not free it while the
  // pin is held: the reader's world stays byte-stable mid-drain.
  EXPECT_EQ(m.Publish(TinyGraph(), nullptr), 2u);
  EXPECT_EQ(m.current_epoch(), 2u);
  EXPECT_EQ(m.retired_count(), 1u);
  EXPECT_EQ(m.epochs_drained(), 0u);
  EXPECT_EQ(pin->epoch(), 1u);
  EXPECT_EQ(pin->frozen().num_nodes(), 2u);

  pin.reset();
  EXPECT_EQ(m.retired_count(), 0u);
  EXPECT_EQ(m.epochs_drained(), 1u);

  // An unpinned predecessor is freed by the publish itself.
  EXPECT_EQ(m.Publish(TinyGraph(), nullptr), 3u);
  EXPECT_EQ(m.retired_count(), 0u);
  EXPECT_EQ(m.epochs_drained(), 2u);
}

// Republish swaps in the same epoch over another graph of the same
// world: the id, clusters, cache and identity map stay, the old snapshot
// retires and frees like a published one.
TEST(EpochManagerTest, RepublishKeepsTheEpochAndRetiresTheOldSnapshot) {
  EpochManager m;
  std::shared_ptr<const FrozenGraph> graph = TinyGraph();
  auto cache = std::make_shared<const DistanceCache>(16);
  EXPECT_EQ(m.Publish(graph, nullptr, cache), 1u);
  std::shared_ptr<const EpochSnapshot> pin = m.Current();
  m.Republish(std::make_shared<const FrozenGraph>(
      graph->WithLandmarks(LandmarkTables::Build(*graph))));
  EXPECT_EQ(m.current_epoch(), 1u);
  EXPECT_EQ(m.epochs_published(), 2u);
  EXPECT_EQ(m.retired_count(), 1u);
  std::shared_ptr<const EpochSnapshot> now = m.Current();
  EXPECT_EQ(now->epoch(), 1u);
  EXPECT_EQ(now->cache(), cache.get());
  EXPECT_NE(now->frozen().landmarks(), nullptr);
  EXPECT_EQ(pin->frozen().landmarks(), nullptr);
  pin.reset();
  EXPECT_EQ(m.epochs_drained(), 1u);
  EXPECT_EQ(m.retired_count(), 0u);
  // The next publish takes the next epoch id, not one past the swap.
  EXPECT_EQ(m.Publish(TinyGraph(), nullptr), 2u);
}

// The regression behind the per-epoch cache design: distances memoized
// while a drain serves an old epoch must be invisible to newer epochs
// (point ids renumber across epochs, so a shared cache could answer a
// new-epoch pair with an old-world distance) — and vice versa.
TEST(EpochManagerTest, EachEpochOwnsItsDistanceCache) {
  EpochManager m;
  m.Publish(TinyGraph(), nullptr,
            std::make_shared<const DistanceCache>(64, 1));
  std::shared_ptr<const EpochSnapshot> old_pin = m.Current();
  ASSERT_NE(old_pin, nullptr);
  ASSERT_NE(old_pin->cache(), nullptr);

  m.Publish(TinyGraph(), nullptr,
            std::make_shared<const DistanceCache>(64, 1));
  std::shared_ptr<const EpochSnapshot> new_pin = m.Current();
  ASSERT_NE(new_pin, nullptr);

  // A store from the still-running old drain lands in the old epoch's
  // cache only; the new epoch starts cold.
  old_pin->cache()->Store(0, 1, 5.0);
  double d = 0.0;
  EXPECT_FALSE(new_pin->cache()->Lookup(0, 1, &d));
  EXPECT_TRUE(old_pin->cache()->Lookup(0, 1, &d));
  EXPECT_DOUBLE_EQ(d, 5.0);

  // And a publish without a cache serves uncached (null), not shared.
  m.Publish(TinyGraph(), nullptr);
  EXPECT_EQ(m.Current()->cache(), nullptr);
}

// The concurrent epoch-swap hammer: readers take the current epoch,
// traverse and let go in a tight loop while the writer publishes new
// epochs. Run under tsan (scripts/run_all.sh tsan) this is the proof the
// publish/read/free protocol is race-free; the assertions below
// additionally pin down monotone epoch visibility and exact drain
// accounting.
TEST(EpochManagerTest, ConcurrentPinPublishHammer) {
  constexpr uint32_t kReaders = 4;
  constexpr uint64_t kPublishes = 50;
  EpochManager m;
  m.Publish(TinyGraph(), nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const EpochSnapshot> pin = m.Current();
        ASSERT_NE(pin, nullptr);
        const EpochSnapshot& snap = *pin;
        // New readers always see the newest published world; per reader
        // the observed epoch never goes backwards.
        EXPECT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        double sum = 0.0;
        snap.frozen().ForEachNeighbor(0, [&](NodeId, double w) { sum += w; });
        EXPECT_GT(sum, 0.0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (uint64_t i = 1; i < kPublishes; ++i) {
    m.Publish(TinyGraph(), nullptr);
    std::this_thread::yield();
  }
  // Let the readers observe the final epoch before stopping.
  while (reads.load(std::memory_order_acquire) < kPublishes * kReaders) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(m.current_epoch(), kPublishes);
  EXPECT_EQ(m.epochs_published(), kPublishes);
  // Every retired epoch drained once its last reader left; only the
  // current epoch is still alive.
  EXPECT_EQ(m.retired_count(), 0u);
  EXPECT_EQ(m.epochs_drained(), kPublishes - 1);
}

// ---------------------------------------------------------------------
// QueryServer: served answers are the inline answers.
// ---------------------------------------------------------------------

TEST(QueryServerTest, ServedBatchesMatchInlineBitIdentically) {
  World w(300, 400, 17);
  InMemoryNetworkView inline_view(w.gen.net, w.points);

  QueryServerOptions opts;
  opts.num_workers = 4;
  opts.validate_replay = true;  // every drain replays through the inline path
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();
  EXPECT_EQ(server.current_epoch(), 1u);

  // A deterministic mixed workload, submitted all at once so the
  // workers actually drain several requests at a time.
  std::vector<QueryRequest> requests;
  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
    PointId b = static_cast<PointId>(rng.NextBounded(w.points.size()));
    switch (i % 3) {
      case 0:
        requests.push_back(QueryRequest::PointDistance(a, b));
        break;
      case 1:
        requests.push_back(QueryRequest::Range(a, 2.0));
        break;
      default:
        requests.push_back(QueryRequest::NearestObject(a, 3));
        break;
    }
  }
  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    futures.push_back(server.Submit(req));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QueryResponse> served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served.value().epoch, 1u);
    Result<QueryResponse> inline_r =
        ExecuteQuery(inline_view, nullptr, requests[i]);
    ASSERT_TRUE(inline_r.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(served.value(), inline_r.value()))
        << "request " << i << " (" << QueryKindName(requests[i].kind) << ")";
  }

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, requests.size());
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.replay_batches, 1u);
  EXPECT_EQ(stats.replay_mismatches, 0u);
  EXPECT_GE(stats.mean_batch_size, 1.0);
}

TEST(QueryServerTest, MalformedRequestsFailWithoutPoisoningTheBatch) {
  World w(80, 100, 41);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::future<Result<QueryResponse>> bad =
      server.Submit(QueryRequest::PointDistance(0, w.points.size() + 5));
  std::future<Result<QueryResponse>> good =
      server.Submit(QueryRequest::PointDistance(0, 1));
  EXPECT_FALSE(bad.get().ok());
  Result<QueryResponse> ok = good.get();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(server.stats().replay_mismatches, 0u);
}

TEST(QueryServerTest, ClusterMembershipServesTheEpochsClustering) {
  World w(150, 200, 53);
  ClusterSpec spec = MakeSpec(EpsLinkOptions{2.0, 2});

  InMemoryNetworkView inline_view(w.gen.net, w.points);
  Result<ClusterOutput> expect = RunClustering(inline_view, spec);
  ASSERT_TRUE(expect.ok());

  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  opts.cluster_spec = spec;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();

  const Clustering& want = expect.value().clustering;
  for (PointId p = 0; p < w.points.size(); ++p) {
    Result<QueryResponse> r =
        server.Execute(QueryRequest::ClusterMembership(p));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().cluster_id, want.assignment[p]) << "point " << p;
  }
}

// ---------------------------------------------------------------------
// QueryServer: updates, epochs, and visibility.
// ---------------------------------------------------------------------

TEST(QueryServerTest, ShortcutEdgeBecomesVisibleInTheNextEpoch) {
  PathWorld w;
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  Result<QueryResponse> before =
      server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(before.ok());
  EXPECT_DOUBLE_EQ(before.value().distance, 11.0);
  EXPECT_EQ(before.value().epoch, 1u);

  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(0, 3, 1.0)).ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.current_epoch(), 2u);

  // p0 -> n0 (0.5) -> shortcut (1.0) -> n3 -> p1 (0.5).
  Result<QueryResponse> after =
      server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after.value().distance, 2.0);
  EXPECT_EQ(after.value().epoch, 2u);
}

TEST(QueryServerTest, ObjectIdsStayStableWhenNewPointsRenumberTheEpoch) {
  PathWorld w;
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // Boot identity: points take ObjectIds 0..1, the three boot edges
  // 2..4; the new edge below gets 5 and the new point 6.
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(0, 3, 1.0)).ok());
  // A point on the new shortcut edge, 0.5 from node 0 — network distance
  // 1.0 from p0. Edge {0,3} sorts between {0,1} and {2,3}, so the new
  // point takes DENSE id 1 and the old p1 shifts to dense id 2 in the
  // new epoch — but responses speak ObjectIds, so the old point keeps
  // answering as object 1 and the new one appears as object 6.
  ASSERT_TRUE(
      server.ApplyUpdate(NetworkUpdate::AddPoint(0, 3, 0.5, -1)).ok());
  ASSERT_TRUE(server.Flush().ok());

  Result<QueryResponse> n =
      server.Execute(QueryRequest::NearestObject(0, 2));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(n.value().results.size(), 2u);
  EXPECT_EQ(n.value().results[0].id, 6u);  // the new point's durable id
  EXPECT_DOUBLE_EQ(n.value().results[0].dist, 1.0);
  EXPECT_EQ(n.value().results[1].id, 1u);  // old p1, same id as epoch 1
  EXPECT_DOUBLE_EQ(n.value().results[1].dist, 2.0);

  // The held id keeps resolving to the same physical object: d(p0, p1)
  // through the shortcut, addressed exactly as before the republication.
  Result<QueryResponse> d =
      server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_DOUBLE_EQ(d.value().distance, 2.0);
}

// ---------------------------------------------------------------------
// Landmark tables: built on demand by the updater, never in Start.
// ---------------------------------------------------------------------

// Waits (bounded) until the updater has built `want` landmark tables.
bool WaitForLandmarkBuilds(QueryServer& server, uint64_t want) {
  for (int i = 0; i < 10000; ++i) {
    if (server.stats().landmark_builds >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::vector<QueryRequest> DistanceRequests(PointId n_points, int count,
                                           uint64_t seed) {
  std::vector<QueryRequest> out;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    out.push_back(QueryRequest::PointDistance(rng.NextBounded(n_points),
                                              rng.NextBounded(n_points)));
  }
  return out;
}

// The first distance asks the updater for tables; the answers before
// and after the tables-only republish are the same bits (and the inline
// path's, which has no tables), the epoch id stays, and later distances
// and publishes never build again.
TEST(QueryServerLandmarkTest, FirstDistanceBuildsOnceAndAnswersKeepTheirBits) {
  World w(400, 300, 47);
  InMemoryNetworkView inline_view(w.gen.net, w.points);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.cache_capacity = 0;  // every answer is a fresh search
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();

  // Reads that are not distances build nothing.
  ASSERT_TRUE(server.Execute(QueryRequest::NearestObject(0, 3)).ok());
  ASSERT_TRUE(server.Execute(QueryRequest::Range(1, 2.0)).ok());
  EXPECT_EQ(server.stats().landmark_builds, 0u);

  const std::vector<QueryRequest> requests =
      DistanceRequests(w.points.size(), 40, 48);
  std::vector<double> before;
  for (const QueryRequest& req : requests) {
    Result<QueryResponse> r = server.Execute(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().epoch, 1u);
    before.push_back(r.value().distance);
  }
  ASSERT_TRUE(WaitForLandmarkBuilds(server, 1));
  EXPECT_EQ(server.current_epoch(), 1u);
  EXPECT_EQ(server.stats().epochs_published, 2u);
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QueryResponse> r = server.Execute(requests[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().epoch, 1u);
    EXPECT_EQ(std::memcmp(&r.value().distance, &before[i], sizeof(double)),
              0)
        << "request " << i;
    Result<QueryResponse> inline_r =
        ExecuteQuery(inline_view, nullptr, requests[i]);
    ASSERT_TRUE(inline_r.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(r.value(), inline_r.value()));
  }

  // A publish carries the tables on; nothing builds them again.
  NodeId far = 1;
  while (w.gen.net.HasEdge(0, far)) ++far;
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(0, far, 0.5)).ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.current_epoch(), 2u);
  for (const QueryRequest& req : DistanceRequests(w.points.size(), 40, 49)) {
    ASSERT_TRUE(server.Execute(req).ok());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.landmark_builds, 1u);
  EXPECT_GT(stats.landmark_build_ms, 0.0);
  EXPECT_EQ(stats.replay_mismatches, 0u);
}

// Four clients issue first distances at once: one build, every answer
// served.
TEST(QueryServerLandmarkTest, ConcurrentFirstDistancesBuildOnce) {
  World w(400, 300, 53);
  QueryServerOptions opts;
  opts.num_workers = 4;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();
  std::atomic<bool> go{false};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (const QueryRequest& req :
           DistanceRequests(w.points.size(), 25, 60 + c)) {
        if (!server.Execute(req).ok()) failed.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  ASSERT_TRUE(WaitForLandmarkBuilds(server, 1));
  for (const QueryRequest& req : DistanceRequests(w.points.size(), 20, 70)) {
    ASSERT_TRUE(server.Execute(req).ok());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.landmark_builds, 1u);
  EXPECT_EQ(stats.replay_mismatches, 0u);
  EXPECT_EQ(server.current_epoch(), 1u);
}

// A publish counts as a landmark repair only when its carry repaired a
// copy of the tables: not when it adds points only (the tables ride
// along), not for an edge longer than any path it could shorten (the
// tables are shared across the new adjacency), and once for a shortcut
// edge.
TEST(QueryServerLandmarkTest, OnlyAShortcutEdgeCountsARepair) {
  World w(400, 300, 59);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();
  const NodeId a = 0;
  NodeId b = w.gen.net.num_nodes() - 1;
  while (w.gen.net.HasEdge(a, b)) --b;
  NodeId c = 1;
  while (c == b || w.gen.net.HasEdge(a, c)) ++c;

  ASSERT_TRUE(server.Execute(QueryRequest::PointDistance(0, 1)).ok());
  ASSERT_TRUE(WaitForLandmarkBuilds(server, 1));
  const Edge e = w.gen.net.Edges().front();
  for (const NetworkUpdate& shares :
       {NetworkUpdate::AddPoint(e.u, e.v, 0.5 * e.weight),
        NetworkUpdate::AddEdge(a, c, 1e6)}) {
    ASSERT_TRUE(server.ApplyUpdate(shares).ok());
    ASSERT_TRUE(server.Flush().ok());
  }
  EXPECT_EQ(server.stats().landmark_repairs, 0u);

  // A near-zero edge between two distant nodes shortens the label at one
  // end for every landmark not equidistant from both.
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(a, b, 1e-6)).ok());
  ASSERT_TRUE(server.Flush().ok());
  ASSERT_TRUE(server.Execute(QueryRequest::PointDistance(0, 1)).ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.landmark_builds, 1u);
  EXPECT_EQ(stats.landmark_repairs, 1u);
  EXPECT_GT(stats.mean_landmark_repair_ms, 0.0);
  EXPECT_EQ(stats.replay_mismatches, 0u);
}

// A logged AddEdge outside the weight domain is rejected live and again
// at replay, so the recovered world is the one that served.
TEST(QueryServerTest, WalReplayRejectsAWeightOutsideTheDomainAlike) {
  PathWorld w;
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.wal_file = wal_file.get();
  {
    Result<std::unique_ptr<QueryServer>> started =
        QueryServer::Start(w.net, w.points, opts);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    Status s = started.value()->ApplyUpdate(
        NetworkUpdate::AddEdge(0, 3, kMaxEdgeWeight));
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    ASSERT_TRUE(started.value()->ApplyUpdate(
        NetworkUpdate::AddEdge(0, 3, 1.0)).ok());
    // The log count is updated once the batch is applied; Flush waits
    // for that round.
    ASSERT_TRUE(started.value()->Flush().ok());
    EXPECT_EQ(started.value()->stats().wal_records, 2u);
  }
  Result<std::unique_ptr<QueryServer>> recovered =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->stats().wal_recoveries, 2u);
  // p0 -> n0 (0.5) -> the admitted shortcut (1.0) -> n3 -> p1 (0.5).
  Result<QueryResponse> d =
      recovered.value()->Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_DOUBLE_EQ(d.value().distance, 2.0);
}

// ---------------------------------------------------------------------
// Incremental epoch builds: shared or rebuilt CSR vs full rebuild.
// ---------------------------------------------------------------------

TEST(IncrementalEpochTest, ServerPublishesIncrementallyUnderValidation) {
  PathWorld w;
  QueryServerOptions opts;
  opts.num_workers = 1;
  // validate_replay makes every incremental publish prove bit-identity
  // against a from-scratch rebuild; a divergence fails the publish.
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(0, 2, 3.0)).ok());
  ASSERT_TRUE(server.Flush().ok());
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddPoint(1, 2, 0.5, -1)).ok());
  ASSERT_TRUE(server.Flush().ok());
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddEdge(1, 3, 2.0)).ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.current_epoch(), 4u);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.publishes_full, 1u);  // the boot epoch
  EXPECT_EQ(stats.publishes_incremental, 3u);
  EXPECT_EQ(stats.publish_failures, 0u);
  EXPECT_GE(stats.mean_publish_incremental_ms, 0.0);

  // The incremental epochs serve correct metric answers: p0 -> n1 (3.5) ->
  // n3 via the shortcut (2.0) -> p1 (0.5).
  Result<QueryResponse> d = server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_DOUBLE_EQ(d.value().distance, 6.0);
}

// A point-only batch leaves the metric untouched, so the retiring
// epoch's distance cache is carried into the new one. That is only
// sound because entries are keyed by ObjectId: the new point renumbers
// the dense ids, and a dense-keyed carried entry would resolve to the
// WRONG pair of objects after the shift.
TEST(IncrementalEpochTest, CarriedCacheStaysCorrectAcrossRenumbering) {
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 4.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 4.0).ok());
  ASSERT_TRUE(net.AddEdge(2, 3, 4.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.5, -1);  // p0, object 0
  builder.Add(1, 2, 1.0, -1);  // p1, object 1: d(p0, p1) = 3.5 + 1.0
  builder.Add(2, 3, 3.5, -1);  // p2, object 2: d(p0, p2) = 3.5 + 4 + 3.5
  PointSet points = std::move(builder).Build(net).value();

  QueryServerOptions opts;
  opts.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(std::move(net), std::move(points), opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // Warm the epoch cache with d(p0, p2) = 11. Under dense keying this
  // entry would sit at pair (0, 2).
  Result<QueryResponse> warm =
      server.Execute(QueryRequest::PointDistance(0, 2));
  ASSERT_TRUE(warm.ok());
  EXPECT_DOUBLE_EQ(warm.value().distance, 11.0);

  // A new point on edge {0,1} shifts p1 to dense id 2 and p2 to dense
  // id 3 in the next epoch; the batch is point-only, so the cache rides
  // along.
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddPoint(0, 1, 1.5, -1)).ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.stats().publishes_incremental, 1u);

  // Objects (0, 1) now resolve to dense (0, 2) — the pair the stale
  // dense-keyed entry would hit, answering 11. ObjectId keying must
  // answer the true d(p0, p1) = 4.5.
  Result<QueryResponse> d = server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_DOUBLE_EQ(d.value().distance, 4.5);
  // And the warmed pair still answers correctly under its durable ids.
  Result<QueryResponse> again =
      server.Execute(QueryRequest::PointDistance(0, 2));
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(again.value().distance, 11.0);
}

// The distance cache keys on the unordered ObjectId pair, so after
// d(a, b) is served, d(b, a) is answered from the cache. Replay
// recomputes d(b, a) on the exact path; the two must be the same bits,
// also when the entry rode along a points-only publish that renumbered
// the epoch.
TEST(IncrementalEpochTest, ReversedPairsReplayBitIdenticallyFromTheCache) {
  World w(60, 80, 61);
  const PointPos host = w.points.position(0);
  const double host_w = w.gen.net.EdgeWeight(host.u, host.v);
  const ObjectId n = w.points.size();

  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.max_queue_depth = n * n;  // one phase is submitted all at once
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  QueryServer& server = *started.value();

  auto serve_all_pairs = [&](bool reversed) {
    std::vector<std::future<Result<QueryResponse>>> futures;
    for (ObjectId a = 0; a < n; ++a) {
      for (ObjectId b = a + 1; b < n; ++b) {
        futures.push_back(
            server.Submit(reversed ? QueryRequest::PointDistance(b, a)
                                   : QueryRequest::PointDistance(a, b)));
      }
    }
    for (auto& f : futures) {
      Result<QueryResponse> r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  serve_all_pairs(/*reversed=*/false);
  ASSERT_TRUE(server
                  .ApplyUpdate(NetworkUpdate::AddPoint(host.u, host.v,
                                                       0.5 * host_w, -1))
                  .ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.stats().publishes_incremental, 1u);
  serve_all_pairs(/*reversed=*/true);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(n) * (n - 1));
  EXPECT_GE(stats.replay_batches, 2u);
  EXPECT_EQ(stats.replay_mismatches, 0u);
}

TEST(QueryServerTest, RejectedUpdatesPublishNothing) {
  PathWorld w;
  QueryServerOptions opts;
  opts.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // Duplicate edge and out-of-edge offset: both refused at apply time,
  // and with nothing applied no epoch is published.
  EXPECT_FALSE(server.ApplyUpdate(NetworkUpdate::AddEdge(0, 1, 2.0)).ok());
  EXPECT_FALSE(
      server.ApplyUpdate(NetworkUpdate::AddPoint(0, 1, 9.5, -1)).ok());
  EXPECT_FALSE(
      server.ApplyUpdate(NetworkUpdate::AddPoint(1, 3, 0.5, -1)).ok());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.current_epoch(), 1u);
}

// Mixed readers against a mutating server: the served-side counterpart
// of the EpochManager hammer (and the other tsan target). Readers must
// only ever see fully published epochs, monotonically.
// NaN compares false against both offset bounds and +inf passes a
// positivity test, so both need explicit checks: neither may reach the
// served world.
TEST(QueryServerTest, NonFiniteMutationsAreRejected) {
  PathWorld w;
  QueryServerOptions opts;
  opts.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(server.ApplyUpdate(NetworkUpdate::AddPoint(0, 1, nan, -1))
                  .IsInvalidArgument());
  EXPECT_TRUE(server.ApplyUpdate(NetworkUpdate::AddPoint(0, 1, inf, -1))
                  .IsInvalidArgument());
  EXPECT_TRUE(
      server.ApplyUpdate(NetworkUpdate::AddEdge(0, 3, inf)).IsInvalidArgument());
  EXPECT_TRUE(
      server.ApplyUpdate(NetworkUpdate::AddEdge(0, 3, nan)).IsInvalidArgument());
  ASSERT_TRUE(server.Flush().ok());
  EXPECT_EQ(server.current_epoch(), 1u);

  // Nothing took an ObjectId: the next accepted point is object 5 (two
  // boot points, three boot edges), and distances stay finite.
  ASSERT_TRUE(server.ApplyUpdate(NetworkUpdate::AddPoint(0, 1, 1.5, -1)).ok());
  ASSERT_TRUE(server.Flush().ok());
  Result<QueryResponse> d = server.Execute(QueryRequest::PointDistance(0, 5));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_DOUBLE_EQ(d.value().distance, 1.0);
}

TEST(QueryServerTest, ConcurrentQueriesAcrossEpochSwaps) {
  World w(200, 300, 31);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 60;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      uint64_t last_epoch = 0;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
        QueryRequest req = (i % 2 == 0)
                               ? QueryRequest::PointDistance(
                                     a, static_cast<PointId>(rng.NextBounded(
                                            w.points.size())))
                               : QueryRequest::NearestObject(a, 2);
        Result<QueryResponse> r = server.Execute(req);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_GE(r.value().epoch, 1u);
        EXPECT_GE(r.value().epoch, last_epoch);
        last_epoch = r.value().epoch;
      }
    });
  }

  // Interleave mutations: each lands on an existing edge midpoint.
  std::vector<Edge> edges = w.gen.net.Edges();
  for (int u = 0; u < 10; ++u) {
    const Edge& e = edges[static_cast<size_t>(u) * 7 % edges.size()];
    ASSERT_TRUE(
        server.ApplyUpdate(
                  NetworkUpdate::AddPoint(e.u, e.v, e.weight / 2, -1))
            .ok());
    std::this_thread::yield();
  }
  ASSERT_TRUE(server.Flush().ok());
  for (std::thread& t : clients) t.join();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, uint64_t{kClients} * kQueriesPerClient);
  EXPECT_GE(stats.epochs_published, 2u);
  EXPECT_GE(server.current_epoch(), 2u);
  // Quiescent now: every non-current epoch has been retired AND freed.
  EXPECT_EQ(stats.retired_epochs, 0u);
  EXPECT_EQ(stats.epochs_drained, stats.epochs_published - 1);
}

// Head-of-line blocking: a request stalled inside its drain must not hold
// up a request that arrives after it, while another worker is idle.
TEST(QueryServerTest, IdleWorkerServesPastAStalledRequest) {
  World w(100, 150, 37);
  QueryServerOptions opts;
  opts.num_workers = 2;
  // Stream 2 of seed 11 draws stall, then no stall, at p = 0.5: the
  // first drain (S's) stalls for 4 s, the second (F's) does not.
  opts.chaos.seed = 11;
  opts.chaos.worker_stall_prob = 0.5;
  opts.chaos.worker_stall_ms = 4000.0;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::future<Result<QueryResponse>> stalled =
      server.Submit(QueryRequest::PointDistance(0, 1));
  // S has left the queue: a worker has taken it and is stalling.
  while (server.stats().queue_depth != 0) std::this_thread::yield();

  std::future<Result<QueryResponse>> fast =
      server.Submit(QueryRequest::PointDistance(2, 3));
  // F needs only the idle worker. S's stall began before F was
  // submitted and lasts 4 s, so F resolving within 1 s leaves S pending.
  ASSERT_EQ(fast.wait_for(std::chrono::seconds(1)), std::future_status::ready)
      << "F waited behind the stalled drain";
  EXPECT_TRUE(fast.get().ok());
  EXPECT_EQ(stalled.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_TRUE(stalled.get().ok());
}

// ---------------------------------------------------------------------
// QueryServer: handing requests to parked workers.
// ---------------------------------------------------------------------

// Spins until every worker of `server` is parked on the empty queue;
// false after `seconds` without that.
bool AwaitAllParked(const QueryServer& server, double seconds) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
  while (server.stats().parked_workers != server.num_workers()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

// Every burst lands on a server whose workers are all parked, so each
// one is served only if a Submit (or the worker it wakes) signals; a
// lost wakeup shows as a timeout, not a hang.
TEST(QueryServerTest, SubmitAfterEveryWorkerParksIsServed) {
  World w(100, 150, 41);
  for (uint32_t workers = 1; workers <= 3; ++workers) {
    QueryServerOptions opts;
    opts.num_workers = workers;
    Result<std::unique_ptr<QueryServer>> started =
        QueryServer::Start(w.gen.net, w.points, opts);
    ASSERT_TRUE(started.ok());
    QueryServer& server = *started.value();
    Rng rng(workers);
    uint64_t submitted = 0;
    for (int round = 0; round < 2000; ++round) {
      ASSERT_TRUE(AwaitAllParked(server, 5.0))
          << workers << " workers, round " << round;
      const uint64_t burst = 1 + rng.NextBounded(2 * workers);
      std::vector<std::future<Result<QueryResponse>>> futures;
      for (uint64_t i = 0; i < burst; ++i) {
        const PointId a = static_cast<PointId>(rng.NextBounded(150));
        futures.push_back(server.Submit(QueryRequest::NearestObject(a, 1)));
      }
      submitted += burst;
      for (std::future<Result<QueryResponse>>& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready)
            << "lost wakeup: " << workers << " workers, round " << round
            << ", burst " << burst;
        EXPECT_TRUE(f.get().ok());
      }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, submitted);
    EXPECT_EQ(stats.completed, submitted);
    // Every round began with all workers parked, so each needed a wake.
    EXPECT_GE(stats.worker_wakes, 2000u);
    EXPECT_GE(stats.worker_parks, stats.worker_wakes);
  }
}

// Requests queued behind a drain are not left for its worker: with
// every drain stalled, the second of two back-to-back requests must be
// taken by the other parked worker, which only a wake passed on by the
// first worker (or the second Submit) gives it.
TEST(QueryServerTest, RequestsLeftBehindADrainWakeAnotherWorker) {
  World w(100, 150, 43);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.chaos.seed = 5;
  opts.chaos.worker_stall_prob = 1.0;
  opts.chaos.worker_stall_ms = 400.0;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(AwaitAllParked(server, 5.0)) << "round " << round;
    std::future<Result<QueryResponse>> first =
        server.Submit(QueryRequest::NearestObject(0, 1));
    std::future<Result<QueryResponse>> second =
        server.Submit(QueryRequest::NearestObject(1, 1));
    // One stall is 400 ms; waiting out the first drain's too takes 800.
    ASSERT_EQ(second.wait_for(std::chrono::milliseconds(650)),
              std::future_status::ready)
        << "round " << round << ": the second request waited for the "
        << "first one's worker";
    EXPECT_TRUE(first.get().ok());
    EXPECT_TRUE(second.get().ok());
  }
}

// Many submitters racing the workers' park/wake cycle: every accepted
// request resolves exactly once, at every worker count and batch size.
TEST(QueryServerTest, ConcurrentSubmittersAllResolve) {
  World w(100, 150, 47);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  for (uint32_t workers : {1u, 3u}) {
    for (size_t max_batch : {size_t{1}, size_t{64}}) {
      QueryServerOptions opts;
      opts.num_workers = workers;
      opts.max_batch_size = max_batch;
      opts.max_queue_depth = kThreads * kPerThread;
      Result<std::unique_ptr<QueryServer>> started =
          QueryServer::Start(w.gen.net, w.points, opts);
      ASSERT_TRUE(started.ok());
      QueryServer& server = *started.value();
      std::atomic<int> resolved{0};
      std::atomic<int> timed_out{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          Rng rng(100 + static_cast<uint64_t>(t));
          std::vector<std::future<Result<QueryResponse>>> futures;
          futures.reserve(kPerThread);
          for (int i = 0; i < kPerThread; ++i) {
            const PointId a = static_cast<PointId>(rng.NextBounded(150));
            futures.push_back(
                server.Submit(QueryRequest::NearestObject(a, 1)));
          }
          for (std::future<Result<QueryResponse>>& f : futures) {
            if (f.wait_for(std::chrono::seconds(10)) !=
                std::future_status::ready) {
              timed_out.fetch_add(1);
              return;
            }
            if (f.get().ok()) resolved.fetch_add(1);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      ASSERT_EQ(timed_out.load(), 0)
          << workers << " workers, max batch " << max_batch;
      EXPECT_EQ(resolved.load(), kThreads * kPerThread);
      const ServerStats stats = server.stats();
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kThreads * kPerThread));
      EXPECT_EQ(stats.completed, stats.accepted);
      EXPECT_LE(stats.worker_wakes, stats.worker_parks);
    }
  }
}

// ---------------------------------------------------------------------
// QueryServer: admission control and shutdown.
// ---------------------------------------------------------------------

TEST(QueryServerTest, BackpressureRejectsWithRetryAfterHint) {
  World w(400, 600, 23);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 1;
  opts.max_batch_size = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // Flood a depth-1 queue with expensive range queries; submits outrun
  // the single worker, so some must bounce with kUnavailable.
  std::vector<std::future<Result<QueryResponse>>> futures;
  Rng rng(5);
  for (int i = 0; i < 5000 && server.stats().rejected == 0; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
    futures.push_back(server.Submit(QueryRequest::Range(a, 50.0)));
  }

  size_t rejected = 0;
  for (std::future<Result<QueryResponse>>& f : futures) {
    Result<QueryResponse> r = f.get();
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("retry after"), std::string::npos);
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.accepted + stats.rejected, futures.size());
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST(QueryServerTest, StopDrainsAcceptedWorkAndRejectsNewSubmits) {
  World w(100, 150, 67);
  QueryServerOptions opts;
  opts.num_workers = 2;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (PointId p = 0; p < 20; ++p) {
    futures.push_back(server.Submit(QueryRequest::NearestObject(p, 1)));
  }
  server.Stop();
  // Accepted work always finishes; the drain is part of Stop's contract.
  for (std::future<Result<QueryResponse>>& f : futures) {
    Result<QueryResponse> r = f.get();
    if (r.ok()) {
      EXPECT_EQ(r.value().epoch, 1u);
    }
  }
  Result<QueryResponse> late =
      server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable());
  server.Stop();  // idempotent
}

TEST(QueryServerTest, StatsCountMonotonically) {
  World w(80, 100, 29);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  for (PointId p = 0; p < 10; ++p) {
    ASSERT_TRUE(server.Execute(QueryRequest::NearestObject(p, 1)).ok());
  }
  const ServerStats first = server.stats();
  EXPECT_EQ(first.completed, 10u);
  EXPECT_EQ(first.epochs_published, 1u);
  EXPECT_EQ(first.replay_mismatches, 0u);
  EXPECT_GE(first.batches, 1u);

  // A second read with no traffic in between sees the same counts.
  const ServerStats second = server.stats();
  EXPECT_EQ(second.completed, first.completed);
  EXPECT_EQ(second.batches, first.batches);

  EXPECT_FALSE(server.QueueWaitSamplesMs().empty());
}

// ---------------------------------------------------------------------
// QueryServer: deadlines, cancellation, and health.
// ---------------------------------------------------------------------

TEST(QueryServerDeadlineTest, ExpiredRequestsAreShedAtDequeue) {
  World w(300, 400, 59);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1;
  opts.validate_replay = true;
  opts.cancel_check_interval = 1;  // a leaked-through request still cancels
  opts.health_window = 0;  // miss-rate degradation off: tested separately
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // One expensive deadline-free query occupies the single worker; the
  // sub-microsecond deadlines behind it all expire in the queue and
  // must be shed at dequeue — resolved with kDeadlineExceeded, never a
  // payload, never a hang.
  std::future<Result<QueryResponse>> blocker =
      server.Submit(QueryRequest::Range(0, 1e18));
  std::vector<std::future<Result<QueryResponse>>> doomed;
  for (int i = 0; i < 20; ++i) {
    doomed.push_back(server.Submit(
        QueryRequest::PointDistance(0, 1).WithDeadline(0.0005)));
  }

  EXPECT_TRUE(blocker.get().ok());
  for (std::future<Result<QueryResponse>>& f : doomed) {
    Result<QueryResponse> r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  }
  ServerStats stats = server.stats();
  // Every doomed request resolved as a deadline miss, whether it was
  // shed before execution or cancelled moments into it.
  EXPECT_EQ(stats.deadline_expired + stats.cancelled_traversals, 20u);
  EXPECT_GE(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.replay_mismatches, 0u);

  // health_window = 0 disables miss-rate degradation entirely: even a
  // pure-miss run keeps the server kServing.
  EXPECT_EQ(server.CurrentHealth(), ServerHealth::kServing);
}

TEST(QueryServerDeadlineTest, MidTraversalCancellationResolvesCleanly) {
  World w(200, 300, 61);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1;
  opts.validate_replay = true;
  opts.cancel_check_interval = 1;  // poll every settle: cancel promptly
  // Chaos stalls the drain long past the deadline, so the deadline
  // passes while the request sits inside ExecuteBatch — the traversal
  // itself must notice and abandon.
  opts.chaos.seed = 3;
  opts.chaos.worker_stall_prob = 1.0;
  opts.chaos.worker_stall_ms = 400.0;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  Result<QueryResponse> r =
      server.Execute(QueryRequest::Range(0, 1e18).WithDeadline(100.0));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled_traversals, 1u);
  EXPECT_EQ(stats.deadline_expired, 0u);  // it reached execution
  // A cancelled (non-OK) request is excluded from replay validation —
  // its partial work can never read as a divergence.
  EXPECT_EQ(stats.replay_mismatches, 0u);

  // With no deadline the same query serves normally afterwards.
  EXPECT_TRUE(server.Execute(QueryRequest::PointDistance(0, 1)).ok());
}

TEST(QueryServerDeadlineTest, GenerousDeadlinesDoNotPerturbPayloads) {
  World w(120, 150, 71);
  InMemoryNetworkView inline_view(w.gen.net, w.points);
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.validate_replay = true;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  for (PointId p = 0; p < 20; ++p) {
    // Odd points ask for a finite deadline far past the clock's range:
    // it must behave as a generous one, not overflow into the past.
    const double deadline_ms = p % 2 == 0 ? 6e4 : 1e300;
    QueryRequest req =
        QueryRequest::NearestObject(p, 3).WithDeadline(deadline_ms);
    Result<QueryResponse> served = server.Execute(req);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    Result<QueryResponse> inline_r = ExecuteQuery(inline_view, nullptr, req);
    ASSERT_TRUE(inline_r.ok());
    EXPECT_TRUE(ResponsePayloadsEqual(served.value(), inline_r.value()))
        << "point " << p;
  }
  EXPECT_EQ(server.stats().cancelled_traversals, 0u);
  EXPECT_EQ(server.stats().deadline_expired, 0u);
}

TEST(QueryServerHealthTest, BackpressureCarriesStructuredRetryAfter) {
  World w(400, 600, 73);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue_depth = 1;
  opts.max_batch_size = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::vector<std::future<Result<QueryResponse>>> futures;
  Rng rng(5);
  for (int i = 0; i < 5000 && server.stats().rejected == 0; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(w.points.size()));
    futures.push_back(server.Submit(QueryRequest::Range(a, 50.0)));
  }

  // While the queue is at depth, a health probe still answers
  // immediately — probes bypass admission control.
  Result<QueryResponse> probe = server.Execute(QueryRequest::Healthz());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().kind, QueryKind::kHealthz);
  EXPECT_EQ(probe.value().epoch, 1u);

  size_t rejected = 0;
  for (std::future<Result<QueryResponse>>& f : futures) {
    Result<QueryResponse> r = f.get();
    if (r.ok()) continue;
    ASSERT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    // The machine-readable hint, not just prose: present and positive.
    ASSERT_TRUE(r.status().retry_after_ms().has_value());
    EXPECT_GT(*r.status().retry_after_ms(), 0.0);
    ++rejected;
  }
  ASSERT_GT(rejected, 0u);
  // A non-rejection status never carries the hint.
  EXPECT_FALSE(Status::DeadlineExceeded("x").retry_after_ms().has_value());
}

TEST(QueryServerHealthTest, HealthzReportsSignalsAndStopping) {
  World w(60, 80, 79);
  QueryServerOptions opts;
  opts.num_workers = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  EXPECT_EQ(server.CurrentHealth(), ServerHealth::kServing);
  HealthReport report = server.Healthz();
  EXPECT_EQ(report.health, ServerHealth::kServing);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.consecutive_publish_failures, 0u);
  EXPECT_FALSE(report.wal_broken);
  EXPECT_DOUBLE_EQ(report.deadline_miss_rate, 0.0);

  // Every served response carries the health verdict for free.
  Result<QueryResponse> r = server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().health, ServerHealth::kServing);

  server.Stop();
  EXPECT_EQ(server.CurrentHealth(), ServerHealth::kStopping);
  EXPECT_EQ(server.Healthz().health, ServerHealth::kStopping);
}

TEST(QueryServerHealthTest, SustainedDeadlineMissesDegradeHealth) {
  World w(300, 400, 83);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1;
  opts.cancel_check_interval = 1;
  opts.health_window = 16;  // the minimum representative window
  opts.degraded_miss_rate = 0.5;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  // Fill the whole outcome window with misses: an expensive blocker
  // pins the worker while 24 sub-microsecond deadlines expire queued.
  std::future<Result<QueryResponse>> blocker =
      server.Submit(QueryRequest::Range(0, 1e18));
  std::vector<std::future<Result<QueryResponse>>> doomed;
  for (int i = 0; i < 24; ++i) {
    doomed.push_back(server.Submit(
        QueryRequest::PointDistance(0, 1).WithDeadline(0.0005)));
  }
  EXPECT_TRUE(blocker.get().ok());
  for (std::future<Result<QueryResponse>>& f : doomed) {
    EXPECT_TRUE(f.get().status().IsDeadlineExceeded());
  }

  EXPECT_EQ(server.CurrentHealth(), ServerHealth::kDegraded);
  HealthReport report = server.Healthz();
  EXPECT_EQ(report.health, ServerHealth::kDegraded);
  EXPECT_GE(report.deadline_miss_rate, 0.5);

  // Degraded is a verdict, not an outage: the server still serves, and
  // the stamped health tells the client so.
  Result<QueryResponse> r = server.Execute(QueryRequest::PointDistance(0, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().health, ServerHealth::kDegraded);
}

// The cached verdict follows the window both ways: once on-time reads
// have pushed every miss out, the server reports kServing again.
TEST(QueryServerHealthTest, DegradedClearsOnceTheWindowRefills) {
  World w(300, 400, 83);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1;
  opts.cancel_check_interval = 1;
  opts.health_window = 16;
  opts.degraded_miss_rate = 0.5;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::future<Result<QueryResponse>> blocker =
      server.Submit(QueryRequest::Range(0, 1e18));
  std::vector<std::future<Result<QueryResponse>>> doomed;
  for (int i = 0; i < 24; ++i) {
    doomed.push_back(server.Submit(
        QueryRequest::PointDistance(0, 1).WithDeadline(0.0005)));
  }
  EXPECT_TRUE(blocker.get().ok());
  for (std::future<Result<QueryResponse>>& f : doomed) {
    EXPECT_TRUE(f.get().status().IsDeadlineExceeded());
  }
  ASSERT_EQ(server.CurrentHealth(), ServerHealth::kDegraded);

  // A full window of on-time reads; the first of them are still served
  // under the degraded verdict. Bounded waits: a lost wakeup fails here
  // rather than hanging the suite.
  auto read = [&server]() -> Result<QueryResponse> {
    std::future<Result<QueryResponse>> f =
        server.Submit(QueryRequest::PointDistance(0, 1));
    if (f.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      return Status::DeadlineExceeded("read never served");
    }
    return f.get();
  };
  for (int i = 0; i < 16; ++i) {
    Result<QueryResponse> r = read();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(server.CurrentHealth(), ServerHealth::kServing);
  const HealthReport report = server.Healthz();
  EXPECT_EQ(report.health, ServerHealth::kServing);
  EXPECT_EQ(report.deadline_miss_rate, 0.0);
  Result<QueryResponse> r = read();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().health, ServerHealth::kServing);
}

TEST(QueryServerHealthTest, StatsCoverResilienceCounters) {
  World w(80, 100, 89);
  QueryServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch_size = 1;
  opts.cancel_check_interval = 1;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(w.gen.net, w.points, opts);
  ASSERT_TRUE(started.ok());
  QueryServer& server = *started.value();

  std::future<Result<QueryResponse>> blocker =
      server.Submit(QueryRequest::Range(0, 1e18));
  std::vector<std::future<Result<QueryResponse>>> doomed;
  for (int i = 0; i < 4; ++i) {
    doomed.push_back(server.Submit(
        QueryRequest::PointDistance(0, 1).WithDeadline(0.0005)));
  }
  EXPECT_TRUE(blocker.get().ok());
  for (std::future<Result<QueryResponse>>& f : doomed) {
    EXPECT_TRUE(f.get().status().IsDeadlineExceeded());
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired + stats.cancelled_traversals, 4u);
  EXPECT_EQ(stats.wal_records, 0u);
  EXPECT_EQ(stats.wal_recoveries, 0u);
  EXPECT_EQ(stats.publish_failures, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);  // gauge, drained
}

}  // namespace
}  // namespace netclus
