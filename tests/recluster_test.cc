// Incremental ε-Link re-clustering across epochs (DESIGN.md §16): a
// QueryServer serving an ε-Link spec keeps the clustering's components
// in a union-find and, on each publish, merges only what the new
// mutations link. Every test here compares the served clustering with a
// full RunClustering over an independently maintained copy of the
// world: after every Flush, each ObjectId's membership answer must be
// the full run's label for that object, and the cluster count must
// match. Deterministic cases pin the link rules at exact ε ties and
// min_sup boundaries; seeded random insert sequences cover the rest,
// one mutation per publish and in coalesced batches, through
// kill/recover, checkpoint restore and failed publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/network.h"
#include "netclus.h"
#include "server/query.h"
#include "server/query_server.h"
#include "server/update.h"
#include "storage/paged_file.h"

namespace netclus {
namespace {

// The test's own copy of the served world. It applies the same
// mutations under the same validity rules and allocates ObjectIds the
// way the server does: boot points first in dense order, then boot
// edges, then one id per accepted mutation.
class ReferenceWorld {
 public:
  ReferenceWorld(const Network& net, const PointSet& points) : net_(net) {
    for (size_t g = 0; g < points.num_groups(); ++g) {
      const PointSet::Group& grp = points.group(g);
      for (uint32_t i = 0; i < grp.count; ++i) {
        raws_.push_back(NetworkUpdate::AddPoint(
            grp.u, grp.v, points.offset(grp.first + i), -1));
        oids_.push_back(next_id_++);
      }
    }
    next_id_ += net.num_edges();
  }

  bool Apply(const NetworkUpdate& u) {
    if (u.kind == NetworkUpdate::Kind::kAddEdge) {
      if (!net_.AddEdge(u.u, u.v, u.value).ok()) return false;
      ++next_id_;
      return true;
    }
    const double w = net_.EdgeWeight(u.u, u.v);
    if (w < 0.0 || !(u.value >= 0.0 && u.value <= w)) return false;
    raws_.push_back(u);
    oids_.push_back(next_id_++);
    return true;
  }

  // The full run over the current world: label per raw point, in the
  // order of oids().
  std::vector<int> FullLabels(const ClusterSpec& spec,
                              int* num_clusters) const {
    PointSetBuilder builder;
    for (const NetworkUpdate& p : raws_) builder.Add(p.u, p.v, p.value, -1);
    std::vector<PointId> raw_to_final;
    PointSet points = std::move(builder).Build(net_, &raw_to_final).value();
    InMemoryNetworkView view(net_, points);
    Result<ClusterOutput> full = RunClustering(view, spec);
    EXPECT_TRUE(full.ok()) << full.status().ToString();
    std::vector<int> labels(raws_.size(), kNoise);
    if (!full.ok()) return labels;
    for (size_t i = 0; i < raws_.size(); ++i) {
      labels[i] = full.value().clustering.assignment[raw_to_final[i]];
    }
    *num_clusters = full.value().clustering.num_clusters;
    return labels;
  }

  // A valid random mutation: AddPoint on any current edge with
  // probability `point_share`, else AddEdge between two unjoined nodes
  // weighing 0.1-1.5 eps, so about two thirds of the new edges can
  // carry a link.
  NetworkUpdate RandomMutation(Rng* rng, double eps,
                               double point_share = 0.7) const {
    if (rng->NextDouble() < point_share) {
      const std::vector<Edge> edges = net_.Edges();
      const Edge& e = edges[rng->NextBounded(edges.size())];
      return NetworkUpdate::AddPoint(e.u, e.v, rng->NextDouble() * e.weight);
    }
    for (;;) {
      const NodeId u = static_cast<NodeId>(rng->NextBounded(net_.num_nodes()));
      const NodeId v = static_cast<NodeId>(rng->NextBounded(net_.num_nodes()));
      if (u == v || net_.EdgeWeight(u, v) >= 0.0) continue;
      const double w = eps * (0.1 + 1.4 * rng->NextDouble());
      return NetworkUpdate::AddEdge(u, v, w);
    }
  }

  const std::vector<ObjectId>& oids() const { return oids_; }

 private:
  Network net_;
  std::vector<NetworkUpdate> raws_;
  std::vector<ObjectId> oids_;
  uint64_t next_id_ = 0;
};

// Membership of every object, in the order of `oids`.
std::vector<int> ServedLabels(QueryServer* server,
                              const std::vector<ObjectId>& oids) {
  std::vector<int> labels;
  labels.reserve(oids.size());
  for (ObjectId oid : oids) {
    Result<QueryResponse> r =
        server->Execute(QueryRequest::ClusterMembership(oid));
    EXPECT_TRUE(r.ok()) << "object " << oid << ": " << r.status().ToString();
    labels.push_back(r.ok() ? r.value().cluster_id : kNoise - 1);
  }
  return labels;
}

// The served clustering equals the full run label for label, and
// names exactly as many clusters.
void ExpectMatchesFullRun(QueryServer* server, const ReferenceWorld& ref,
                          const ClusterSpec& spec) {
  int want_clusters = -1;
  const std::vector<int> want = ref.FullLabels(spec, &want_clusters);
  const std::vector<int> got = ServedLabels(server, ref.oids());
  ASSERT_EQ(got.size(), want.size());
  int got_clusters = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "object " << ref.oids()[i];
    got_clusters = std::max(got_clusters, got[i] + 1);
  }
  EXPECT_EQ(got_clusters, want_clusters);
}

struct GenWorld {
  GeneratedNetwork gen;
  PointSet points;
  double eps = 0.0;

  GenWorld(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
    double sum = 0.0;
    for (const Edge& e : gen.net.Edges()) sum += e.weight;
    eps = 0.6 * sum / static_cast<double>(gen.net.num_edges());
  }
};

std::unique_ptr<QueryServer> StartOrDie(Network net, PointSet points,
                                        const QueryServerOptions& opts) {
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(std::move(net), std::move(points), opts);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return started.ok() ? std::move(started).value() : nullptr;
}

QueryServerOptions EpsLinkServing(double eps, uint32_t min_sup) {
  QueryServerOptions opts;
  opts.num_workers = 2;
  opts.cluster_spec = MakeSpec(EpsLinkOptions{eps, min_sup});
  return opts;
}

// ---------------------------------------------------------------------
// Deterministic link cases. Weights and offsets are dyadic, so every
// distance below is exact and the ε ties are real ties.
// ---------------------------------------------------------------------

// Path 0-1-2 (unit edges), eps 0.375: a point 0.25 before node 1 and a
// point 0.25 past it are 0.5 apart — two clusters — until a point on
// node 1 itself sits 0.25 from each.
TEST(IncrementalReclusterTest, AddPointBridgesTwoClusters) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.75, -1);
  builder.Add(1, 2, 0.25, -1);
  PointSet points = std::move(builder).Build(net).value();
  ReferenceWorld ref(net, points);
  QueryServerOptions opts = EpsLinkServing(0.375, 1);
  std::unique_ptr<QueryServer> server = StartOrDie(net, points, opts);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()), (std::vector<int>{0, 1}));

  const NetworkUpdate bridge = NetworkUpdate::AddPoint(1, 2, 0.0);
  ASSERT_TRUE(ref.Apply(bridge));
  ASSERT_TRUE(server->ApplyUpdate(bridge).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{0, 0, 0}));
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.reclusters_full, 1u);
  EXPECT_EQ(stats.reclusters_incremental, 1u);
  // A second read with no publish in between sees the same split.
  EXPECT_EQ(server->stats().reclusters_incremental, 1u);
}

// A new point exactly eps from its only neighbour links to it (the
// ε-Link test is d <= eps); with min_sup 2 the lone point was noise and
// the new pair is the first cluster.
TEST(IncrementalReclusterTest, AddPointExactlyEpsFromANeighbourLinks) {
  Network net(2);
  ASSERT_TRUE(net.AddEdge(0, 1, 2.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.25, -1);
  PointSet points = std::move(builder).Build(net).value();
  ReferenceWorld ref(net, points);
  QueryServerOptions opts = EpsLinkServing(0.5, 2);
  std::unique_ptr<QueryServer> server = StartOrDie(net, points, opts);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{kNoise}));

  const NetworkUpdate tie = NetworkUpdate::AddPoint(0, 1, 0.75);
  ASSERT_TRUE(ref.Apply(tie));
  ASSERT_TRUE(server->ApplyUpdate(tie).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()), (std::vector<int>{0, 0}));
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);

  // Just past eps: a third point 0.5 + 2^-10 beyond the second stays
  // alone, hence noise.
  const NetworkUpdate apart = NetworkUpdate::AddPoint(0, 1, 1.25 + 0x1p-10);
  ASSERT_TRUE(ref.Apply(apart));
  ASSERT_TRUE(server->ApplyUpdate(apart).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{0, 0, kNoise}));
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
}

// Two disjoint paths 0-1-2 and 3-4-5 (unit edges), eps 0.5, with
// clusters huddled around nodes 1 and 4. A shortcut longer than eps and
// one with no point near either end change nothing; a short one merges
// the clusters through points on both sides, including a pair exactly
// eps apart across it.
TEST(IncrementalReclusterTest, AddEdgeBridgesClustersOnlyWithinEps) {
  Network net(6);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(3, 4, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(4, 5, 1.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.75, -1);   // 0.25 from node 1
  builder.Add(0, 1, 0.875, -1);  // 0.125 from node 1
  builder.Add(1, 2, 0.125, -1);  // 0.125 from node 1
  builder.Add(3, 4, 0.875, -1);  // 0.125 from node 4
  builder.Add(4, 5, 0.25, -1);   // 0.25 from node 4
  PointSet points = std::move(builder).Build(net).value();
  ReferenceWorld ref(net, points);
  QueryServerOptions opts = EpsLinkServing(0.5, 1);
  opts.validate_replay = true;  // the publish oracle runs too
  std::unique_ptr<QueryServer> server = StartOrDie(net, points, opts);
  ASSERT_NE(server, nullptr);
  const std::vector<int> before = ServedLabels(server.get(), ref.oids());
  EXPECT_EQ(before, (std::vector<int>{0, 0, 0, 1, 1}));

  for (const NetworkUpdate& no_link :
       {NetworkUpdate::AddEdge(1, 5, 0.625),    // w > eps
        NetworkUpdate::AddEdge(0, 3, 0.125)}) {  // no point near 0 or 3
    ASSERT_TRUE(ref.Apply(no_link));
    ASSERT_TRUE(server->ApplyUpdate(no_link).ok());
    ASSERT_TRUE(server->Flush().ok());
    EXPECT_EQ(ServedLabels(server.get(), ref.oids()), before);
  }

  // Across the bridge the nearest pair is 0.125 + 0.125 + 0.125 apart,
  // the pair 0.25 + 0.125 + 0.125 = 0.5 exactly eps, and the farthest
  // (0.25 from node 1, 0.25 from node 4) 0.625, linked only by chain.
  const NetworkUpdate bridge = NetworkUpdate::AddEdge(1, 4, 0.125);
  ASSERT_TRUE(ref.Apply(bridge));
  ASSERT_TRUE(server->ApplyUpdate(bridge).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{0, 0, 0, 0, 0}));
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.reclusters_full, 1u);
  EXPECT_EQ(stats.reclusters_incremental, 3u);
  EXPECT_EQ(stats.publish_failures, 0u);
}

// min_sup 3: a pair is noise until a third point joins it, and the
// component keeps its members across the epochs in which it is noise.
TEST(IncrementalReclusterTest, NoiseComponentGrowsPastMinSup) {
  Network net(3);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, 4.0).ok());
  PointSetBuilder builder;
  builder.Add(0, 1, 0.25, -1);
  builder.Add(0, 1, 0.5, -1);
  builder.Add(1, 2, 1.0, -1);
  builder.Add(1, 2, 1.25, -1);
  builder.Add(1, 2, 1.5, -1);
  PointSet points = std::move(builder).Build(net).value();
  ReferenceWorld ref(net, points);
  QueryServerOptions opts = EpsLinkServing(0.25, 3);
  std::unique_ptr<QueryServer> server = StartOrDie(net, points, opts);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{kNoise, kNoise, 0, 0, 0}));

  // A point far from both groups: its own noise component.
  const NetworkUpdate lone = NetworkUpdate::AddPoint(1, 2, 3.0);
  ASSERT_TRUE(ref.Apply(lone));
  ASSERT_TRUE(server->ApplyUpdate(lone).ok());
  ASSERT_TRUE(server->Flush().ok());
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);

  // The third member of the noise pair: it becomes cluster 0, and the
  // old cluster is renumbered 1 because labels follow dense order.
  const NetworkUpdate third = NetworkUpdate::AddPoint(0, 1, 0.75);
  ASSERT_TRUE(ref.Apply(third));
  ASSERT_TRUE(server->ApplyUpdate(third).ok());
  ASSERT_TRUE(server->Flush().ok());
  EXPECT_EQ(ServedLabels(server.get(), ref.oids()),
            (std::vector<int>{0, 0, 1, 1, 1, kNoise, 0}));
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
}

// ---------------------------------------------------------------------
// Seeded random insert sequences.
// ---------------------------------------------------------------------

// One mutation per publish, min_sup 1-3, with and without the publish
// oracle, checked against the full run after every Flush.
TEST(IncrementalReclusterTest, RandomSequencesOneMutationPerPublish) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    for (uint32_t min_sup : {1u, 2u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " min_sup " +
                   std::to_string(min_sup));
      GenWorld w(70, 90, seed);
      ReferenceWorld ref(w.gen.net, w.points);
      QueryServerOptions opts = EpsLinkServing(w.eps, min_sup);
      opts.validate_replay = seed % 2 == 1;
      std::unique_ptr<QueryServer> server =
          StartOrDie(w.gen.net, w.points, opts);
      ASSERT_NE(server, nullptr);
      Rng rng(seed * 100 + min_sup);
      constexpr int kMutations = 30;
      for (int m = 0; m < kMutations; ++m) {
        const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
        ASSERT_TRUE(ref.Apply(u));
        ASSERT_TRUE(server->ApplyUpdate(u).ok());
        ASSERT_TRUE(server->Flush().ok());
        ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
        if (HasFailure()) return;
      }
      const ServerStats stats = server->stats();
      EXPECT_EQ(stats.reclusters_full, 1u);
      EXPECT_EQ(stats.reclusters_incremental,
                static_cast<uint64_t>(kMutations));
      EXPECT_EQ(stats.publish_failures, 0u);
    }
  }
}

// Several mutations submitted back to back, so the updater coalesces
// them (a new point may sit on a new edge of the same batch).
TEST(IncrementalReclusterTest, RandomMultiMutationBatches) {
  for (uint64_t seed : {21u, 22u}) {
    for (uint32_t min_sup : {1u, 2u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " min_sup " +
                   std::to_string(min_sup));
      GenWorld w(60, 80, seed);
      ReferenceWorld ref(w.gen.net, w.points);
      QueryServerOptions opts = EpsLinkServing(w.eps, min_sup);
      opts.validate_replay = min_sup == 2;
      std::unique_ptr<QueryServer> server =
          StartOrDie(w.gen.net, w.points, opts);
      ASSERT_NE(server, nullptr);
      Rng rng(seed * 100 + min_sup);
      for (int round = 0; round < 8; ++round) {
        const int batch = 2 + static_cast<int>(rng.NextBounded(6));
        std::vector<std::future<Status>> applied;
        for (int m = 0; m < batch; ++m) {
          const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
          ASSERT_TRUE(ref.Apply(u));
          applied.push_back(server->SubmitUpdate(u));
        }
        for (std::future<Status>& f : applied) ASSERT_TRUE(f.get().ok());
        ASSERT_TRUE(server->Flush().ok());
        ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
        if (HasFailure()) return;
      }
      const ServerStats stats = server->stats();
      EXPECT_EQ(stats.reclusters_full, 1u);
      EXPECT_EQ(stats.reclusters_incremental, stats.epochs_published - 1);
    }
  }
}

// A failed publish leaves its mutations applied but unpublished; the
// next publish must still rebuild the CSR for their edges and link their
// objects.
// The oracles (validate_replay) fail every later publish otherwise, so
// the server must come back to a published world equal to the full run.
TEST(IncrementalReclusterTest, FailedPublishesCarryTheirMutationsForward) {
  GenWorld w(60, 80, 31);
  ReferenceWorld ref(w.gen.net, w.points);
  QueryServerOptions opts = EpsLinkServing(w.eps, 2);
  opts.validate_replay = true;
  opts.degraded_publish_failures = 0;
  opts.chaos.seed = 5;
  opts.chaos.publish_failure_prob = 0.5;
  std::unique_ptr<QueryServer> server = StartOrDie(w.gen.net, w.points, opts);
  ASSERT_NE(server, nullptr);
  Rng rng(31);
  int failed = 0;
  int recovered = 0;  // successful publishes right after a failed one
  bool last_failed = false;
  for (int m = 0; m < 40 || last_failed; ++m) {
    ASSERT_LT(m, 80) << "publishes never recovered from a failure";
    const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
    ASSERT_TRUE(ref.Apply(u));
    ASSERT_TRUE(server->ApplyUpdate(u).ok());
    if (!server->Flush().ok()) {
      ++failed;
      last_failed = true;
      continue;
    }
    if (last_failed) ++recovered;
    last_failed = false;
    ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(recovered, 0);
  EXPECT_EQ(server->stats().publish_failures, static_cast<uint64_t>(failed));
}

// Kill/recover from the WAL and restore from a checkpoint: the revived
// server reseeds its components from the recovered world and answers
// membership per ObjectId exactly as before the kill — and keeps
// re-clustering incrementally from there.
TEST(IncrementalReclusterTest, KillRecoverAndCheckpointRestoreKeepMembership) {
  GenWorld w(70, 90, 41);
  for (uint64_t checkpoint_every : {0u, 4u}) {
    SCOPED_TRACE("checkpoint_every " + std::to_string(checkpoint_every));
    std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
    std::unique_ptr<PagedFile> ckpt_a = PagedFile::CreateInMemory(4096);
    std::unique_ptr<PagedFile> ckpt_b = PagedFile::CreateInMemory(4096);
    QueryServerOptions opts = EpsLinkServing(w.eps, 2);
    opts.wal_file = wal_file.get();
    opts.checkpoint_file_a = ckpt_a.get();
    opts.checkpoint_file_b = ckpt_b.get();
    opts.wal_checkpoint_every = checkpoint_every;

    ReferenceWorld ref(w.gen.net, w.points);
    Rng rng(41 + checkpoint_every);
    std::vector<int> before;
    {
      std::unique_ptr<QueryServer> server =
          StartOrDie(w.gen.net, w.points, opts);
      ASSERT_NE(server, nullptr);
      for (int m = 0; m < 18; ++m) {
        const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
        ASSERT_TRUE(ref.Apply(u));
        ASSERT_TRUE(server->ApplyUpdate(u).ok());
        ASSERT_TRUE(server->Flush().ok());
      }
      if (checkpoint_every > 0) {
        EXPECT_GT(server->stats().checkpoints_written, 0u);
      }
      before = ServedLabels(server.get(), ref.oids());
    }  // killed: only the WAL and checkpoint slots survive

    std::unique_ptr<QueryServer> revived =
        StartOrDie(w.gen.net, w.points, opts);
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->stats().wal_recovered_from_checkpoint,
              checkpoint_every > 0 ? 1u : 0u);
    EXPECT_EQ(ServedLabels(revived.get(), ref.oids()), before);
    ExpectMatchesFullRun(revived.get(), ref, *opts.cluster_spec);

    for (int m = 0; m < 6; ++m) {
      const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
      ASSERT_TRUE(ref.Apply(u));
      ASSERT_TRUE(revived->ApplyUpdate(u).ok());
      ASSERT_TRUE(revived->Flush().ok());
      ExpectMatchesFullRun(revived.get(), ref, *opts.cluster_spec);
    }
    const ServerStats stats = revived->stats();
    EXPECT_EQ(stats.reclusters_full, 1u);
    EXPECT_EQ(stats.reclusters_incremental, 6u);
  }
}

// The incremental re-cluster is ε-Link only: for another algorithm
// every publish re-runs RunClustering.
TEST(IncrementalReclusterTest, OtherSpecsRunFullClustering) {
  GenWorld w(50, 60, 51);
  QueryServerOptions opts = EpsLinkServing(w.eps, 1);
  DbscanOptions dbscan;
  dbscan.eps = w.eps;
  dbscan.min_pts = 2;
  opts.cluster_spec = MakeSpec(dbscan);
  ReferenceWorld ref(w.gen.net, w.points);
  std::unique_ptr<QueryServer> server = StartOrDie(w.gen.net, w.points, opts);
  ASSERT_NE(server, nullptr);
  Rng rng(51);
  for (int m = 0; m < 4; ++m) {
    const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
    ASSERT_TRUE(ref.Apply(u));
    ASSERT_TRUE(server->ApplyUpdate(u).ok());
    ASSERT_TRUE(server->Flush().ok());
  }
  ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.reclusters_full, 5u);
  EXPECT_EQ(stats.reclusters_incremental, 0u);
  EXPECT_GE(stats.mean_recluster_ms, 0.0);
}

// ---------------------------------------------------------------------
// Publishing by merge: an incremental publish merges the new raw points
// into the last published PointSet (DESIGN.md §16). validate_replay
// runs the PointSet oracle on every such publish, so a merge that
// differs from the from-scratch build fails the publish and the test.
// ---------------------------------------------------------------------

// What a client can see of each object: its membership, its distance
// to and from the first object, and its three nearest objects. Equal
// fingerprints from two servers mean the same ObjectIds sit at the
// same positions in the same clusters.
std::vector<QueryResponse> Fingerprint(QueryServer* server,
                                       const std::vector<ObjectId>& oids) {
  std::vector<QueryResponse> out;
  for (ObjectId oid : oids) {
    for (const QueryRequest& req :
         {QueryRequest::ClusterMembership(oid),
          QueryRequest::PointDistance(oid, oids.front()),
          QueryRequest::PointDistance(oids.front(), oid),
          QueryRequest::NearestObject(oid, 3)}) {
      Result<QueryResponse> r = server->Execute(req);
      EXPECT_TRUE(r.ok()) << "object " << oid << ": " << r.status().ToString();
      out.push_back(r.ok() ? r.value() : QueryResponse{});
    }
  }
  return out;
}

void ExpectSameFingerprints(const std::vector<QueryResponse>& got,
                            const std::vector<QueryResponse>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(ResponsePayloadsEqual(got[i], want[i])) << "answer " << i;
  }
}

// AddPoint-only and mixed AddPoint/AddEdge sequences, one mutation per
// publish: every publish after boot is a merge. The full build of each
// epoch is checked bit for bit in tests/world_test.cc.
TEST(PointSetMergePublishTest, PublishesMatchTheFullRun) {
  GenWorld w(60, 80, 61);
  for (double point_share : {1.0, 0.6}) {
    SCOPED_TRACE("point share " + std::to_string(point_share));
    ReferenceWorld ref(w.gen.net, w.points);
    QueryServerOptions opts = EpsLinkServing(w.eps, 2);
    opts.validate_replay = true;
    std::unique_ptr<QueryServer> server =
        StartOrDie(w.gen.net, w.points, opts);
    ASSERT_NE(server, nullptr);
    Rng rng(61);
    constexpr int kMutations = 16;
    for (int m = 0; m < kMutations; ++m) {
      const NetworkUpdate u = ref.RandomMutation(&rng, w.eps, point_share);
      ASSERT_TRUE(ref.Apply(u));
      ASSERT_TRUE(server->ApplyUpdate(u).ok());
      ASSERT_TRUE(server->Flush().ok());
      ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
      if (HasFailure()) return;
    }
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.publish_failures, 0u);
    EXPECT_EQ(stats.publishes_full, 1u);
    EXPECT_EQ(stats.publishes_incremental, static_cast<uint64_t>(kMutations));
    EXPECT_GT(stats.mean_publish_points_ms, 0.0);
    EXPECT_GT(stats.mean_publish_csr_ms, 0.0);
  }
}

// Chaos fails publishes; the base must not advance past a failed one,
// so the next successful publish merges the failed batch's points
// together with its own. A server booted from the same log (no chaos,
// one full build) must then see the same objects at the same places.
TEST(PointSetMergePublishTest, FailedPublishMergesBothBatchesNextTime) {
  GenWorld w(60, 80, 71);
  std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
  QueryServerOptions opts = EpsLinkServing(w.eps, 2);
  opts.validate_replay = true;
  opts.wal_file = wal_file.get();
  opts.degraded_publish_failures = 0;
  opts.chaos.seed = 9;
  opts.chaos.publish_failure_prob = 0.4;
  ReferenceWorld ref(w.gen.net, w.points);
  std::vector<QueryResponse> served;
  int failed = 0;
  int merged_after_failure = 0;
  {
    std::unique_ptr<QueryServer> server =
        StartOrDie(w.gen.net, w.points, opts);
    ASSERT_NE(server, nullptr);
    Rng rng(71);
    bool last_failed = false;
    for (int m = 0; m < 30 || last_failed; ++m) {
      ASSERT_LT(m, 80) << "publishes never recovered from a failure";
      const NetworkUpdate u = ref.RandomMutation(&rng, w.eps, 0.85);
      ASSERT_TRUE(ref.Apply(u));
      ASSERT_TRUE(server->ApplyUpdate(u).ok());
      if (!server->Flush().ok()) {
        ++failed;
        last_failed = true;
        continue;
      }
      if (last_failed) ++merged_after_failure;
      last_failed = false;
      ExpectMatchesFullRun(server.get(), ref, *opts.cluster_spec);
      if (HasFailure()) return;
    }
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.publish_failures, static_cast<uint64_t>(failed));
    EXPECT_EQ(stats.publishes_full, 1u);
    served = Fingerprint(server.get(), ref.oids());
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(merged_after_failure, 0);

  QueryServerOptions reboot_opts = opts;
  reboot_opts.chaos = ChaosOptions{};
  std::unique_ptr<QueryServer> rebooted =
      StartOrDie(w.gen.net, w.points, reboot_opts);
  ASSERT_NE(rebooted, nullptr);
  ExpectSameFingerprints(Fingerprint(rebooted.get(), ref.oids()), served);
}

// WAL (and checkpoint) recovery, then more merged publishes on the
// recovered world: the result must equal a server rebooted from the
// same log, which builds that world in one go.
TEST(PointSetMergePublishTest, MergesAfterRecoveryMatchAReboot) {
  GenWorld w(60, 80, 81);
  for (uint64_t checkpoint_every : {0u, 4u}) {
    SCOPED_TRACE("checkpoint_every " + std::to_string(checkpoint_every));
    std::unique_ptr<PagedFile> wal_file = PagedFile::CreateInMemory(4096);
    std::unique_ptr<PagedFile> ckpt_a = PagedFile::CreateInMemory(4096);
    std::unique_ptr<PagedFile> ckpt_b = PagedFile::CreateInMemory(4096);
    QueryServerOptions opts = EpsLinkServing(w.eps, 2);
    opts.validate_replay = true;
    opts.wal_file = wal_file.get();
    opts.checkpoint_file_a = ckpt_a.get();
    opts.checkpoint_file_b = ckpt_b.get();
    opts.wal_checkpoint_every = checkpoint_every;
    ReferenceWorld ref(w.gen.net, w.points);
    Rng rng(81 + checkpoint_every);
    auto mutate = [&](QueryServer* server, int count) {
      for (int m = 0; m < count; ++m) {
        const NetworkUpdate u = ref.RandomMutation(&rng, w.eps);
        ASSERT_TRUE(ref.Apply(u));
        ASSERT_TRUE(server->ApplyUpdate(u).ok());
        ASSERT_TRUE(server->Flush().ok());
      }
    };
    {
      std::unique_ptr<QueryServer> first =
          StartOrDie(w.gen.net, w.points, opts);
      ASSERT_NE(first, nullptr);
      mutate(first.get(), 10);
    }  // killed: only the WAL and checkpoint slots survive

    std::vector<QueryResponse> served;
    {
      std::unique_ptr<QueryServer> revived =
          StartOrDie(w.gen.net, w.points, opts);
      ASSERT_NE(revived, nullptr);
      mutate(revived.get(), 8);
      if (HasFatalFailure()) return;
      const ServerStats stats = revived->stats();
      EXPECT_EQ(stats.publishes_full, 1u);
      EXPECT_EQ(stats.publishes_incremental, 8u);
      EXPECT_EQ(stats.publish_failures, 0u);
      ExpectMatchesFullRun(revived.get(), ref, *opts.cluster_spec);
      served = Fingerprint(revived.get(), ref.oids());
    }

    std::unique_ptr<QueryServer> rebooted =
        StartOrDie(w.gen.net, w.points, opts);
    ASSERT_NE(rebooted, nullptr);
    EXPECT_EQ(rebooted->stats().wal_recovered_from_checkpoint,
              checkpoint_every > 0 ? 1u : 0u);
    ExpectSameFingerprints(Fingerprint(rebooted.get(), ref.oids()), served);
  }
}

}  // namespace
}  // namespace netclus
