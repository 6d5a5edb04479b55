// Server throughput: the QueryServer serving a mixed read workload
// (point distances, range queries, nearest-object) at 1, 4, and 8
// worker threads. The measured run is CLOSED-LOOP: a bounded in-flight
// window sized below the admission queue keeps every submission
// accepted, so accepted_qps measures served work — not the cost of
// stamping kUnavailable on floods the server never executed (the trap
// an open-loop "qps" falls into once rejections dominate). The reported
// p99 queue wait comes from the server's own sample ring. A slice of
// the workload carries a soft deadline, and a separate shallow-queue
// OPEN-LOOP pressure probe floods admission control — that probe alone
// feeds rejection_rate, reported separately from accepted_qps in
// BENCH_server.json, alongside deadline_miss_rate (shed + cancelled
// over completed) per worker count. Three final probes measure the mean
// time a World (server/world.h) takes to build the next epoch from
// scratch vs incrementally, two worlds fed the same mutations: a
// sparse-mutation world with one AddEdge per build (an ungated record:
// the full build materializes the CSR adjacency, the incremental one
// shifts its predecessor's), a world serving an ε-Link cluster_spec
// with about one point per node, where every build also re-clusters
// (ratio gated below 0.5, the median CSR stage of its AddEdge builds
// at most 0.25 ms, and the median World::Checkpoint() of its
// incremental world, timed every kCheckpointEvery builds, at most
// 0.9 ms), and the same 20k points
// with no cluster_spec and one AddPoint per build, where the PointSet
// merge is the work (ratio gated below 0.5, every build must share its
// predecessor's adjacency, and the median CSR stage, over every build
// and over those that renumbered the point handle, must stay below
// 0.2 ms). Each probe also prints the mean PointSet, CSR and re-cluster
// stage times of both legs and how many incremental builds shared their
// predecessor's adjacency and point handle; the two incremental legs
// build hundreds of epochs, so a sub-0.2 ms stage is timed over enough
// builds to gate it. A last, ungated leg builds the NA-size world that
// cluster-batch generates (175,980 nodes, about 528k clustered points)
// under an ε-Link spec and records the median one-point publish and its
// points, CSR and re-cluster stages as `na_publish`.
// BENCH_server.json is a per-revision history (one {sha, date, entries}
// row per run), not a snapshot.
// Wired into `run_all.sh bench-smoke` and `run_all.sh server-smoke`.
//
// Gate: throughput must scale from 1 to 4 workers. Each leg repeats its
// request batch until it has run for at least kMinLegSeconds and reports
// qps over the whole leg, so no single host hiccup decides it. The 1-
// and 4-worker legs run three times, alternating, and the median of the
// three 1->4 ratios is gated (all three are printed). The bar is
// hardware-aware — on a multi-core host 4 workers must beat 1 by 5%; on
// a single core they only have to stay within 2x (the batching overhead
// bound), since there is no parallelism to win.
//
// On 4 -> 8 workers a qps *dip* is expected rather than a win, and it
// is annotated, not gated: past the physical core count the extra
// workers only oversubscribe (on a 1-core host, 8 workers time-slice
// one core). Each worker takes its own drain of at most
// ceil(depth / workers) requests from the admission queue, so with
// twice the workers each drain is about half as long and the per-drain
// costs — the queue lock, the condition-variable wakeup, the epoch pin
// and, with validation on, the replay — are paid twice as often, while
// the workers contend for the queue lock and the cores.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "server/query_server.h"
#include "server/world.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

constexpr int kRequests = 1500;
// One batch of kRequests takes about 10 ms; a leg repeats it until it
// has run this long.
constexpr double kMinLegSeconds = 0.2;
constexpr int kScalingRounds = 3;

std::vector<QueryRequest> MakeWorkload(PointId n_points, double eps) {
  std::vector<QueryRequest> reqs;
  reqs.reserve(kRequests);
  Rng rng(31);
  for (int i = 0; i < kRequests; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(n_points));
    PointId b = static_cast<PointId>(rng.NextBounded(n_points));
    switch (i % 3) {
      case 0:
        reqs.push_back(QueryRequest::PointDistance(a, b));
        break;
      case 1:
        reqs.push_back(QueryRequest::Range(a, eps));
        break;
      default:
        reqs.push_back(QueryRequest::NearestObject(a, 2));
        break;
    }
    // Every fifth request carries a soft deadline generous enough that
    // a healthy server almost never misses it — the measured miss rate
    // is the signal, and a miss resolves cleanly rather than failing
    // the bench.
    if (i % 5 == 0) reqs.back().deadline_ms = 250.0;
  }
  return reqs;
}

// Accepted queries/sec over a whole leg for one worker count, the p99
// queue wait across the leg, and the resilience rates.
struct RunResult {
  /// Closed-loop completions per second over the whole leg; every
  /// submission was accepted.
  double accepted_qps = 0.0;
  double p99_wait_ms = 0.0;
  /// (shed + cancelled) / completed over the leg.
  double deadline_miss_rate = 0.0;
  /// kUnavailable rejections / submissions in the pressure probe.
  double rejection_rate = 0.0;
};

// Publish latency over a 20k-node network: one World builds every
// epoch from scratch (BuildFull), another incrementally (Build), both
// fed the same mutations, one build per mutation. Edge leg: few points
// and one AddEdge per build: the full world re-materializes the whole
// adjacency each time, the incremental one shifts its predecessor's by
// the new edge's slots (ungated: the record of what an edge publish
// costs). Re-cluster leg: about one point per node and an ε-Link
// cluster_spec (eps half the mean edge weight), two
// AddPoints then one AddEdge per three builds — the full build re-runs
// RunClustering every epoch, the incremental one merges only the new
// links (gated: ratio < 0.5; the median incremental re-cluster stage is
// recorded; the median CSR stage of its AddEdge builds and the median
// Checkpoint() of its incremental world are gated). Point leg: the same
// 20k points, no cluster_spec, one AddPoint per build — the full build
// sorts every point into a fresh PointSet, the incremental one merges
// the new point into the last epoch's, shares its adjacency and
// carries its point handle (gated: ratio < 0.5, every build shares the
// adjacency, median CSR stage < 0.2 ms over all builds and over the
// renumbering ones). The edge leg
// builds 9 epochs; the other two build kIncrementalBuilds each and time
// BuildFull, which leaves its world as it is, on kFullBuilds of them
// spread evenly. The edge and point legs' incremental worlds carry
// landmark tables, built once on their boot epoch as a query server
// builds them after its first distance: the point leg must share them
// on every build (gated, exact), the edge leg records how many builds
// shared or repaired them and the median carry stage (ungated). Reported
// as
// publish_full_ms / publish_incremental_ms / publish_ratio plus the
// per-stage means and medians in BENCH_server.json.
enum class PublishLeg { kEdges, kRecluster, kPoints };

constexpr int kEdgeBuilds = 9;
constexpr int kIncrementalBuilds = 240;
constexpr int kFullBuilds = 9;
constexpr int kCheckpointEvery = 8;

// Mean build and stage times of one leg, and the CSR and re-cluster
// stage samples for their medians.
struct BuildTimes {
  RunningStats total_ms;
  RunningStats points_ms;
  RunningStats csr_ms;
  RunningStats recluster_ms;
  std::vector<double> csr_samples;
  std::vector<double> recluster_samples;

  void Add(double ms, const World::Epoch& epoch) {
    total_ms.Add(ms);
    points_ms.Add(epoch.points_ms);
    csr_ms.Add(epoch.csr_ms);
    recluster_ms.Add(epoch.recluster_ms);
    csr_samples.push_back(epoch.csr_ms);
    recluster_samples.push_back(epoch.recluster_ms);
  }
  double csr_median() const { return Percentile(csr_samples, 0.5); }
  double recluster_median() const {
    return Percentile(recluster_samples, 0.5);
  }
};

// The full-build world's times and the incremental world's.
struct PublishLatency {
  BuildTimes full;
  BuildTimes incremental;
  /// Incremental builds whose graph shares its predecessor's adjacency,
  /// and its point handle.
  uint64_t shared_adjacency = 0;
  uint64_t shared_handle = 0;
  /// CSR stage times of the incremental builds that renumbered their
  /// predecessor's point handle instead of sharing it.
  std::vector<double> renumbered_csr;
  /// Re-cluster leg only: the CSR stage times of the incremental builds
  /// that published an AddEdge, and the incremental world's Checkpoint()
  /// times, taken every kCheckpointEvery builds, with the edge and
  /// point counts of the last checkpoint.
  std::vector<double> edge_csr;
  std::vector<double> checkpoint_ms;
  size_t checkpoint_edges = 0;
  size_t checkpoint_points = 0;
  /// Landmark legs only: the tables' build time on the boot epoch, the
  /// incremental builds that carried tables and those that shared their
  /// predecessor's, and each build's landmark stage time.
  double landmark_build_ms = 0.0;
  uint64_t landmarks_carried = 0;
  uint64_t landmarks_shared = 0;
  std::vector<double> landmark_stage_ms;

  double full_ms() const { return full.total_ms.mean(); }
  double incremental_ms() const { return incremental.total_ms.mean(); }
  double ratio() const {
    return full_ms() > 0.0 ? incremental_ms() / full_ms() : 1.0;
  }
};

World::Epoch BuildOrDie(Result<World::Epoch> built) {
  if (!built.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

void ApplyOrDie(World* world, const NetworkUpdate& mutation) {
  Status applied = world->Apply(mutation);
  if (!applied.ok()) {
    std::fprintf(stderr, "mutation failed: %s\n", applied.ToString().c_str());
    std::exit(1);
  }
}

PublishLatency MeasurePublishLatency(PointId num_points, PublishLeg leg) {
  GeneratedNetwork gen = GenerateRoadNetwork({20000, 1.3, 0.3, 91});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, num_points, 92)).value();
  const std::vector<Edge> edges = gen.net.Edges();
  double mean_edge = 0.0;
  for (const Edge& e : edges) mean_edge += e.weight;
  mean_edge /= static_cast<double>(edges.size());
  const double eps = 0.5 * mean_edge;
  const bool recluster = leg == PublishLeg::kRecluster;
  const char* what[] = {"one edge mutation per publish",
                        "eps-link re-cluster, point and edge mutations",
                        "one point mutation per publish, no cluster spec"};
  std::printf("publish-latency: %u nodes, %zu edges, %u points, %s\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size(),
              what[static_cast<int>(leg)]);

  WorldOptions opts;
  if (recluster) opts.cluster_spec = MakeSpec(EpsLinkOptions{eps, 1});
  World full = World::Boot(gen.net, points, opts);
  World incremental = World::Boot(gen.net, points, opts);
  // The boot build is the incremental world's first base.
  std::shared_ptr<const FrozenGraph> prev_graph =
      BuildOrDie(incremental.Build()).graph;
  PublishLatency out;
  if (!recluster) {
    WallTimer timer;
    prev_graph = incremental.BuildLandmarks();
    out.landmark_build_ms = timer.ElapsedMillis();
  }

  const int builds =
      leg == PublishLeg::kEdges ? kEdgeBuilds : kIncrementalBuilds;
  Rng rng(93);
  for (int i = 0; i < builds; ++i) {
    NetworkUpdate mutation;
    if (leg == PublishLeg::kPoints || (recluster && i % 3 != 2)) {
      const Edge& e = edges[rng.NextBounded(edges.size())];
      mutation =
          NetworkUpdate::AddPoint(e.u, e.v, rng.NextDouble() * e.weight);
      ApplyOrDie(&incremental, mutation);
    } else {
      // Random endpoints; a duplicate-edge rejection just redraws.
      const double weight =
          recluster ? eps * (0.5 + 0.1 * (i % 9)) : 1.0 + 0.5 * i;
      for (;;) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(gen.net.num_nodes()));
        NodeId v = static_cast<NodeId>(rng.NextBounded(gen.net.num_nodes()));
        if (u == v) continue;
        mutation = NetworkUpdate::AddEdge(u, v, weight);
        if (incremental.Apply(mutation).ok()) break;
      }
    }
    ApplyOrDie(&full, mutation);
    WallTimer timer;
    // Builds i where i * kFullBuilds / builds steps up: kFullBuilds of
    // them, evenly spaced (every build when builds == kFullBuilds).
    if ((i + 1) * kFullBuilds / builds != i * kFullBuilds / builds) {
      const World::Epoch full_epoch = BuildOrDie(full.BuildFull());
      out.full.Add(timer.ElapsedMillis(), full_epoch);
    }
    timer.Restart();
    const World::Epoch epoch = BuildOrDie(incremental.Build());
    out.incremental.Add(timer.ElapsedMillis(), epoch);
    if (recluster) {
      if (mutation.kind == NetworkUpdate::Kind::kAddEdge) {
        out.edge_csr.push_back(epoch.csr_ms);
      }
      if (i % kCheckpointEvery == kCheckpointEvery - 1) {
        timer.Restart();
        const CheckpointState state = incremental.Checkpoint();
        out.checkpoint_ms.push_back(timer.ElapsedMillis());
        out.checkpoint_edges = state.edges.size();
        out.checkpoint_points = state.points.size();
      }
    }
    if (epoch.graph->SharesAdjacencyWith(*prev_graph)) ++out.shared_adjacency;
    if (epoch.graph->landmarks() != nullptr) {
      ++out.landmarks_carried;
      if (epoch.graph->landmarks() == prev_graph->landmarks()) {
        ++out.landmarks_shared;
      }
      out.landmark_stage_ms.push_back(epoch.landmarks_ms);
    }
    if (epoch.graph->SharesPointHandleWith(*prev_graph)) {
      ++out.shared_handle;
    } else if (epoch.graph->SharesAdjacencyWith(*prev_graph)) {
      out.renumbered_csr.push_back(epoch.csr_ms);
    }
    prev_graph = epoch.graph;
    if (!epoch.incremental || epoch.recluster_incremental != recluster) {
      std::fprintf(stderr,
                   "build %d: expected an incremental build%s, saw "
                   "incremental=%d recluster_incremental=%d\n",
                   i, recluster ? " and re-cluster" : "", epoch.incremental,
                   epoch.recluster_incremental);
      std::exit(1);
    }
  }
  std::printf(
      "  stages full / incremental: points %.3f / %.3f ms, csr %.3f / "
      "%.3f ms, re-cluster %.3f / %.3f ms\n",
      out.full.points_ms.mean(), out.incremental.points_ms.mean(),
      out.full.csr_ms.mean(), out.incremental.csr_ms.mean(),
      out.full.recluster_ms.mean(), out.incremental.recluster_ms.mean());
  return out;
}

// The NA-size publish leg: the world cluster-batch generates at scale 1
// (SpecNA(1.0), about 3 clustered points per node) under an ε-Link spec
// at 0.5 x the mean edge, then kNaBuilds builds of one AddPoint each on
// a random edge. An ungated record of what one publish costs at the
// paper's largest network, stage by stage, before ROADMAP item 4's
// contract change is judged on it.
constexpr int kNaBuilds = 40;

struct NaPublish {
  NodeId nodes = 0;
  PointId points = 0;
  double boot_s = 0.0;
  std::vector<double> total_ms;
  std::vector<double> points_ms;
  std::vector<double> csr_ms;
  std::vector<double> recluster_ms;
};

NaPublish MeasureNaPublish() {
  GeneratedNetwork gen = GenerateRoadNetwork(SpecNA(1.0));
  const std::vector<Edge> edges = gen.net.Edges();
  double total_weight = 0.0;
  for (const Edge& e : edges) total_weight += e.weight;
  ClusterWorkloadSpec ws;
  ws.total_points = 3 * gen.net.num_nodes();
  ws.num_clusters = 10;
  ws.outlier_fraction = 0.01;
  ws.magnification = 5.0;
  // As cluster-batch: clusters cover about 6% of the total edge length.
  ws.s_init = 0.06 * total_weight /
              (3.0 * (1.0 - ws.outlier_fraction) * ws.total_points);
  ws.seed = 94;
  Result<GeneratedWorkload> generated = GenerateClusteredPoints(gen.net, ws);
  if (!generated.ok()) {
    std::fprintf(stderr, "NA point generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(1);
  }
  const PointSet& points = generated.value().points;
  const double eps =
      0.5 * total_weight / static_cast<double>(gen.net.num_edges());
  NaPublish out;
  out.nodes = gen.net.num_nodes();
  out.points = points.size();
  std::printf("na publish-latency: %u nodes, %zu edges, %u points, eps-link "
              "at 0.5 x the mean edge, one point mutation per publish\n",
              out.nodes, gen.net.num_edges(), out.points);

  WorldOptions opts;
  opts.cluster_spec = MakeSpec(EpsLinkOptions{eps, 1});
  World world = World::Boot(gen.net, points, opts);
  WallTimer timer;
  BuildOrDie(world.Build());
  out.boot_s = timer.ElapsedSeconds();
  Rng rng(95);
  for (int i = 0; i < kNaBuilds; ++i) {
    const Edge& e = edges[rng.NextBounded(edges.size())];
    ApplyOrDie(&world, NetworkUpdate::AddPoint(e.u, e.v,
                                               rng.NextDouble() * e.weight));
    timer.Restart();
    const World::Epoch epoch = BuildOrDie(world.Build());
    out.total_ms.push_back(timer.ElapsedMillis());
    out.points_ms.push_back(epoch.points_ms);
    out.csr_ms.push_back(epoch.csr_ms);
    out.recluster_ms.push_back(epoch.recluster_ms);
    if (!epoch.incremental || !epoch.recluster_incremental) {
      std::fprintf(stderr, "na build %d: expected an incremental build and "
                   "re-cluster\n", i);
      std::exit(1);
    }
  }
  return out;
}

// Prints one publish-latency probe's verdict line and records it in
// BENCH_server.json. `gate` names the ratio gate main applies, if any.
void ReportPublishLatency(BenchRecorder* rec, const std::string& bench,
                          const char* label, const PublishLatency& pub,
                          const char* gate) {
  const auto publishes =
      static_cast<unsigned long long>(pub.incremental.total_ms.count());
  std::printf(
      "%s: full %.3f ms over %llu, incremental %.3f ms over %llu publishes "
      "(ratio %.2f, %s); point handle shared %llu/%llu; adjacency shared "
      "%llu/%llu\n",
      label, pub.full_ms(),
      static_cast<unsigned long long>(pub.full.total_ms.count()),
      pub.incremental_ms(), publishes, pub.ratio(), gate,
      static_cast<unsigned long long>(pub.shared_handle), publishes,
      static_cast<unsigned long long>(pub.shared_adjacency), publishes);
  rec->Add(bench, {pub.incremental_ms() * 1e-3}, TraversalCounters{},
           {{"publish_full_ms", pub.full_ms()},
            {"publish_incremental_ms", pub.incremental_ms()},
            {"publish_ratio", pub.ratio()},
            {"points_full_ms", pub.full.points_ms.mean()},
            {"points_incremental_ms", pub.incremental.points_ms.mean()},
            {"csr_full_ms", pub.full.csr_ms.mean()},
            {"csr_incremental_ms", pub.incremental.csr_ms.mean()},
            {"csr_incremental_median_ms", pub.incremental.csr_median()},
            {"adjacency_shared",
             static_cast<double>(pub.shared_adjacency)},
            {"recluster_full_ms", pub.full.recluster_ms.mean()},
            {"recluster_incremental_ms",
             pub.incremental.recluster_ms.mean()},
            {"recluster_incremental_median_ms",
             pub.incremental.recluster_median()},
            {"point_handle_shared", static_cast<double>(pub.shared_handle)}});
}

RunResult RunAtWorkers(const Network& net, const PointSet& points,
                       uint32_t workers,
                       const std::vector<QueryRequest>& reqs) {
  QueryServerOptions opts;
  opts.num_workers = workers;
  opts.max_queue_depth = 256;
  opts.max_batch_size = 64;
  std::unique_ptr<QueryServer> server =
      std::move(QueryServer::Start(net, points, opts).value());

  // Closed loop: keep at most `window` requests in flight, submitting
  // the next only after the oldest completes. The window is sized below
  // the admission queue, so backpressure never fires and the timer
  // measures accepted work end to end.
  const size_t window = opts.max_queue_depth - 64;
  uint64_t batches = 0;
  WallTimer timer;
  do {
    std::deque<std::future<Result<QueryResponse>>> inflight;
    size_t next = 0;
    while (next < reqs.size() || !inflight.empty()) {
      while (inflight.size() < window && next < reqs.size()) {
        inflight.push_back(server->Submit(reqs[next++]));
      }
      Result<QueryResponse> r = inflight.front().get();
      inflight.pop_front();
      if (!r.ok() && !r.status().IsDeadlineExceeded()) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
    }
    ++batches;
  } while (timer.ElapsedSeconds() < kMinLegSeconds);
  const double leg_seconds = timer.ElapsedSeconds();
  if (server->stats().rejected != 0) {
    std::fprintf(stderr,
                 "closed loop leaked %llu rejections — window missized\n",
                 static_cast<unsigned long long>(server->stats().rejected));
    std::exit(1);
  }

  RunResult out;
  out.accepted_qps =
      static_cast<double>(batches * reqs.size()) / leg_seconds;
  out.p99_wait_ms = Percentile(server->QueueWaitSamplesMs(), 0.99);
  ServerStats stats = server->stats();
  if (stats.completed > 0) {
    out.deadline_miss_rate =
        static_cast<double>(stats.deadline_expired +
                            stats.cancelled_traversals) /
        static_cast<double>(stats.completed);
  }

  // Pressure probe: a shallow-queue server flooded with the same
  // workload measures how admission control sheds load at this worker
  // count. Rejections resolve immediately with a structured retry-after
  // hint; everything admitted must still complete.
  QueryServerOptions pressure_opts = opts;
  pressure_opts.max_queue_depth = 128;
  std::unique_ptr<QueryServer> pressure =
      std::move(QueryServer::Start(net, points, pressure_opts).value());
  std::vector<std::future<Result<QueryResponse>>> flood;
  flood.reserve(reqs.size());
  for (const QueryRequest& req : reqs) {
    flood.push_back(pressure->Submit(req));
  }
  for (std::future<Result<QueryResponse>>& f : flood) {
    Result<QueryResponse> r = f.get();
    if (!r.ok() && !r.status().IsUnavailable() &&
        !r.status().IsDeadlineExceeded()) {
      std::fprintf(stderr, "pressure query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  ServerStats pstats = pressure->stats();
  if (pstats.accepted + pstats.rejected > 0) {
    out.rejection_rate =
        static_cast<double>(pstats.rejected) /
        static_cast<double>(pstats.accepted + pstats.rejected);
  }
  return out;
}

}  // namespace

int main() {
  GeneratedNetwork gen = GenerateRoadNetwork({2500, 1.3, 0.3, 77});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 1200, 78)).value();
  InMemoryNetworkView view(gen.net, points);
  std::printf("server-throughput: %u nodes, %zu edges, %u points\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size());

  const double eps = SampledEps(view);
  std::vector<QueryRequest> reqs = MakeWorkload(points.size(), eps);

  // The 1- and 4-worker legs run kScalingRounds times, alternating, and
  // the scaling gate reads the median of the rounds' 1->4 ratios, so one
  // disturbed round does not decide it. The median round's legs are the
  // ones reported.
  std::vector<std::pair<RunResult, RunResult>> rounds;
  std::vector<double> ratios;
  for (int round = 0; round < kScalingRounds; ++round) {
    RunResult one = RunAtWorkers(gen.net, points, 1, reqs);
    RunResult four = RunAtWorkers(gen.net, points, 4, reqs);
    rounds.emplace_back(one, four);
    ratios.push_back(four.accepted_qps / one.accepted_qps);
  }
  std::vector<size_t> order(kScalingRounds);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ratios[a] < ratios[b]; });
  const size_t median = order[kScalingRounds / 2];

  BenchRecorder rec("server");
  PrintRow({"workers", "accepted_qps", "p99_wait_ms", "miss_rate",
            "reject_rate"},
           16);
  std::vector<std::pair<uint32_t, RunResult>> results = {
      {1u, rounds[median].first},
      {4u, rounds[median].second},
      {8u, RunAtWorkers(gen.net, points, 8, reqs)}};
  for (const auto& [workers, r] : results) {
    PrintRow({std::to_string(workers), Fmt(r.accepted_qps, 0),
              Fmt(r.p99_wait_ms), Fmt(r.deadline_miss_rate, 4),
              Fmt(r.rejection_rate, 4)},
             16);
    // "qps" stays as an alias of accepted_qps so older dashboards keep
    // reading; rejection_rate comes solely from the open-loop probe.
    rec.Add("qps_workers_" + std::to_string(workers),
            {static_cast<double>(kRequests) / r.accepted_qps},
            TraversalCounters{},
            {{"qps", r.accepted_qps},
             {"accepted_qps", r.accepted_qps},
             {"p99_queue_wait_ms", r.p99_wait_ms},
             {"deadline_miss_rate", r.deadline_miss_rate},
             {"rejection_rate", r.rejection_rate},
             {"workers", static_cast<double>(workers)}});
  }

  const PublishLatency pub = MeasurePublishLatency(64, PublishLeg::kEdges);
  ReportPublishLatency(&rec, "publish_latency", "publish latency", pub,
                       "ungated");
  const PublishLatency rc =
      MeasurePublishLatency(20000, PublishLeg::kRecluster);
  ReportPublishLatency(&rec, "publish_latency_recluster",
                       "publish latency with re-cluster", rc, "gate < 0.5");
  const PublishLatency pt = MeasurePublishLatency(20000, PublishLeg::kPoints);
  ReportPublishLatency(&rec, "publish_latency_points",
                       "publish latency, points only", pt, "gate < 0.5");
  const NaPublish na = MeasureNaPublish();
  const double na_total = Percentile(na.total_ms, 0.5);
  const double na_points = Percentile(na.points_ms, 0.5);
  const double na_csr = Percentile(na.csr_ms, 0.5);
  const double na_recluster = Percentile(na.recluster_ms, 0.5);
  std::printf("na publish: median %.3f ms over %zu one-point builds at %u "
              "nodes, %u points (points %.3f, csr %.3f, re-cluster %.3f "
              "ms); boot build %.2f s (ungated)\n",
              na_total, na.total_ms.size(), na.nodes, na.points, na_points,
              na_csr, na_recluster, na.boot_s);
  rec.Add("na_publish", {na_total * 1e-3}, TraversalCounters{},
          {{"median_ms", na_total},
           {"points_median_ms", na_points},
           {"csr_median_ms", na_csr},
           {"recluster_median_ms", na_recluster},
           {"boot_s", na.boot_s},
           {"nodes", static_cast<double>(na.nodes)},
           {"points", static_cast<double>(na.points)},
           {"builds", static_cast<double>(na.total_ms.size())}});
  const double rc_ratio = rc.ratio();
  const double pt_ratio = pt.ratio();
  const double edge_csr = Percentile(rc.edge_csr, 0.5);
  const double checkpoint_ms = Percentile(rc.checkpoint_ms, 0.5);
  std::printf("edge csr stage: median %.3f ms over the %zu AddEdge builds "
              "of the re-cluster leg (gate <= 0.25 ms)\n",
              edge_csr, rc.edge_csr.size());
  std::printf("checkpoint: median %.3f ms over %zu calls at 20000 nodes "
              "(last: %zu edges, %zu points) (gate <= 0.9 ms)\n",
              checkpoint_ms, rc.checkpoint_ms.size(), rc.checkpoint_edges,
              rc.checkpoint_points);
  rec.Add("edge_csr_stage", {edge_csr * 1e-3}, TraversalCounters{},
          {{"median_ms", edge_csr},
           {"builds", static_cast<double>(rc.edge_csr.size())}});
  rec.Add("world_checkpoint", {checkpoint_ms * 1e-3}, TraversalCounters{},
          {{"median_ms", checkpoint_ms},
           {"calls", static_cast<double>(rc.checkpoint_ms.size())}});
  std::printf("re-cluster stage: incremental median %.3f ms (mean %.3f ms) "
              "over %llu builds (ungated)\n",
              rc.incremental.recluster_median(),
              rc.incremental.recluster_ms.mean(),
              static_cast<unsigned long long>(
                  rc.incremental.recluster_ms.count()));
  // Over half the points-only builds share the handle and spend next to
  // nothing, so the builds that renumbered it are gated on their own.
  std::printf("edge landmarks: carried %llu/%llu (%llu shared, %llu "
              "repaired); landmark stage median %.3f ms; build %.1f ms at "
              "20000 nodes (ungated)\n",
              static_cast<unsigned long long>(pub.landmarks_carried),
              static_cast<unsigned long long>(
                  pub.incremental.total_ms.count()),
              static_cast<unsigned long long>(pub.landmarks_shared),
              static_cast<unsigned long long>(pub.landmarks_carried -
                                              pub.landmarks_shared),
              Percentile(pub.landmark_stage_ms, 0.5), pub.landmark_build_ms);
  std::printf("points-only landmarks: shared %llu/%llu (gate: all)\n",
              static_cast<unsigned long long>(pt.landmarks_shared),
              static_cast<unsigned long long>(
                  pt.incremental.total_ms.count()));
  rec.Add("landmarks_edges", {pub.landmark_build_ms * 1e-3},
          TraversalCounters{},
          {{"build_ms", pub.landmark_build_ms},
           {"carried", static_cast<double>(pub.landmarks_carried)},
           {"shared", static_cast<double>(pub.landmarks_shared)},
           {"stage_median_ms", Percentile(pub.landmark_stage_ms, 0.5)}});
  const double pt_csr = pt.incremental.csr_median();
  const double pt_renumbered_csr = Percentile(pt.renumbered_csr, 0.5);
  std::printf("points-only csr stage: median %.3f ms over %llu builds, "
              "%.3f ms over the %zu that renumbered the point handle "
              "(gate < 0.2 ms)\n",
              pt_csr,
              static_cast<unsigned long long>(pt.incremental.csr_ms.count()),
              pt_renumbered_csr, pt.renumbered_csr.size());

  // Per-PR history: BENCH_server.json accumulates one {sha, date,
  // entries} row per run instead of being overwritten, so the perf
  // trajectory survives across revisions.
  std::string path = rec.WriteAppend();
  std::printf("\nwrote %s\n",
              path.empty() ? "(json write FAILED)" : path.c_str());
  if (path.empty()) return 1;

  // With an ε-Link spec the full path re-runs RunClustering over 20k
  // points every epoch; merging the few new links must cost well under
  // half of that.
  if (rc_ratio >= 0.5) {
    std::fprintf(stderr,
                 "FAIL: re-cluster publish latency ratio %.2f >= 0.5\n",
                 rc_ratio);
    return 1;
  }

  // One AddPoint per publish over 20k points: merging one point into
  // the last epoch's PointSet must cost well under half of sorting all
  // 20k into a fresh one.
  if (pt_ratio >= 0.5) {
    std::fprintf(stderr,
                 "FAIL: point-only publish latency ratio %.2f >= 0.5\n",
                 pt_ratio);
    return 1;
  }
  // No edge was added, so no point-only build may copy the adjacency:
  // exact, whatever the hardware.
  if (pt.shared_adjacency != pt.incremental.total_ms.count()) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu point-only builds shared their "
                 "predecessor's adjacency\n",
                 static_cast<unsigned long long>(pt.shared_adjacency),
                 static_cast<unsigned long long>(
                     pt.incremental.total_ms.count()));
    return 1;
  }

  // No edge was added, so every point-only build shares its
  // predecessor's landmark tables with the adjacency: exact.
  if (pt.landmarks_shared != pt.incremental.total_ms.count()) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu point-only builds shared their "
                 "predecessor's landmark tables\n",
                 static_cast<unsigned long long>(pt.landmarks_shared),
                 static_cast<unsigned long long>(
                     pt.incremental.total_ms.count()));
    return 1;
  }

  // A points-only publish carries the last epoch's point handle: shared
  // when the point joins an edge that already holds some, renumbered in
  // one pass over the slots otherwise. Either way its CSR stage is a
  // small fraction of a freeze.
  if (pt_csr >= 0.2 || pt_renumbered_csr >= 0.2) {
    std::fprintf(stderr,
                 "FAIL: points-only csr stage median %.3f ms (renumbered "
                 "%.3f ms) >= 0.2 ms\n",
                 pt_csr, pt_renumbered_csr);
    return 1;
  }

  // An AddEdge build shifts its predecessor's adjacency by the new
  // edge's two slots instead of rebuilding it from the network's rows,
  // and a checkpoint copies the world's edge and point records as they
  // are: both a fraction of a whole-world rebuild.
  if (edge_csr > 0.25) {
    std::fprintf(stderr, "FAIL: AddEdge csr stage median %.3f ms > 0.25 ms\n",
                 edge_csr);
    return 1;
  }
  if (checkpoint_ms > 0.9) {
    std::fprintf(stderr, "FAIL: checkpoint median %.3f ms > 0.9 ms\n",
                 checkpoint_ms);
    return 1;
  }

  // Hardware-aware scaling gate on ACCEPTED work: 1 -> 4 workers, the
  // median of the alternating rounds.
  const double ratio = ratios[median];
  const unsigned cores = std::thread::hardware_concurrency();
  double floor = 0.5;  // single core: batching overhead bounded by 2x
  if (cores >= 4) {
    floor = 1.05;
  } else if (cores >= 2) {
    floor = 1.0;
  }
  std::printf("scaling 1->4 workers:");
  for (double r : ratios) std::printf(" %.2fx", r);
  std::printf(", median %.2fx (floor %.2fx on %u cores)\n", ratio, floor,
              cores);
  if (ratio <= floor) {
    std::fprintf(stderr,
                 "FAIL: 4-worker throughput did not clear the scaling "
                 "floor\n");
    return 1;
  }

  // 4 -> 8 workers: annotated, not gated. Past the physical core count
  // the extra workers oversubscribe, and shorter drains pay the
  // per-drain wakeup, lock and pin costs more often — a dip here is
  // expected (see header comment).
  const double ratio48 =
      results[2].second.accepted_qps / results[1].second.accepted_qps;
  std::printf("scaling 4->8 workers: %.2fx (annotation only: %s on %u "
              "cores)\n",
              ratio48,
              ratio48 < 1.0 ? "dip expected past physical core count"
                            : "no dip observed",
              cores);
  return 0;
}
