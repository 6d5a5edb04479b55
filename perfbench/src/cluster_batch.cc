// cluster-batch: the paper's four algorithms through RunClustering on
// the NA-sized generated dataset (|V| ~ 176k, N ~ 3|V| clustered points,
// k = 10, 1% outliers). One round runs k-medoids with the index off and
// on, DBSCAN, ε-Link and Single-Link; rounds repeat until the run's
// time is used, and the unit of work is one round. A traced run adds the disk-resident leg (the four
// algorithms over DiskNetworkBundle behind a 1 MiB buffer of 4 KiB
// pages) for its exact I/O counters.
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "eval/metrics.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network_store.h"
#include "index/distance_index.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using netclus::ClusterOutput;
using netclus::ClusterSpec;
using netclus::Rng;
using netclus::TraversalCounters;

namespace {

// The dataset as a ServeWorld so the graph-layer probe can run on it;
// `spec` is the ε-Link run (min_sup 2, matching DBSCAN MinPts 2).
ServeWorld MakeBatchWorld(const Params& p, uint64_t seed) {
  ServeWorld w;
  w.gen = netclus::GenerateRoadNetwork(
      netclus::SpecNA(p.Num("batch.scale"), Rng::DeriveSeed(seed, 1)));
  double total_weight = 0.0;
  for (const netclus::Edge& e : w.gen.net.Edges()) total_weight += e.weight;
  netclus::ClusterWorkloadSpec ws;
  ws.total_points = static_cast<netclus::PointId>(
      p.Num("batch.points_per_node") * w.gen.net.num_nodes());
  ws.num_clusters = static_cast<uint32_t>(p.Int("batch.k"));
  ws.outlier_fraction = p.Num("batch.outliers");
  ws.magnification = 5.0;
  // Clusters occupy ~6% of the total edge length (mean spacing over a
  // cluster's growth is 3 s_init for F = 5).
  ws.s_init = 0.06 * total_weight /
              (3.0 * (1.0 - ws.outlier_fraction) * ws.total_points);
  ws.seed = Rng::DeriveSeed(seed, 2);
  netclus::Result<netclus::GeneratedWorkload> gw =
      netclus::GenerateClusteredPoints(w.gen.net, ws);
  DieIf(gw.status(), "clustered point generation");
  w.points = std::move(gw.value().points);
  w.mean_edge = MeanEdgeWeight(w.gen.net);
  w.range_eps = p.Num("world.range_eps_edges") * w.mean_edge;
  netclus::EpsLinkOptions eo;
  eo.eps = gw.value().max_intra_gap;
  eo.min_sup = 2;
  w.spec = netclus::MakeSpec(eo);
  return w;
}

struct Job {
  const char* name;       ///< metric suffix
  const char* span;       ///< span name
  ClusterSpec spec;
};

std::vector<Job> MakeJobs(const Params& p, const ServeWorld& w,
                          uint64_t seed) {
  const double eps = w.spec.eps_link.eps;
  netclus::KMedoidsOptions ko;
  ko.k = static_cast<uint32_t>(p.Int("batch.k"));
  ko.seed = Rng::DeriveSeed(seed, 3);
  // A fixed swap budget: from a random start the search would run for a
  // seed-dependent number of swaps, which would make the work of a
  // round depend on the seed more than on the code.
  ko.max_swaps = static_cast<uint32_t>(p.Int("kmedoids.max_swaps"));
  ClusterSpec km = netclus::MakeSpec(ko);
  ClusterSpec km_idx = km;
  km_idx.index.enable = true;
  km_idx.index.num_landmarks = static_cast<uint32_t>(p.Int("index.landmarks"));
  km_idx.index.num_threads = static_cast<uint32_t>(p.Int("index.threads"));
  netclus::DbscanOptions dbo;
  dbo.eps = eps;
  dbo.min_pts = 2;
  netclus::SingleLinkOptions so;
  so.delta = p.Num("singlelink.delta_eps") * eps;
  return {
      {"kmedoids", "core.RunClustering.kmedoids", km},
      {"kmedoids_indexed", "core.RunClustering.kmedoids_indexed", km_idx},
      {"dbscan", "core.RunClustering.dbscan", netclus::MakeSpec(dbo)},
      {"epslink", "core.RunClustering.epslink", w.spec},
      {"singlelink", "core.RunClustering.singlelink",
       netclus::MakeSpec(so, eps, 2)},
  };
}

struct Timed {
  ClusterOutput out;
  double seconds = 0.0;
  TraversalCounters work;  ///< calling-thread traversal counters
};

Timed RunOne(const netclus::NetworkView& view, const Job& job) {
  Timed t;
  const TraversalCounters before = netclus::LocalTraversalCounters();
  const double t0 = Now();
  std::optional<netclus::Result<ClusterOutput>> r;
  {
    Span span(job.span);
    r.emplace(netclus::RunClustering(view, job.spec));
  }
  t.seconds = Now() - t0;
  t.work = netclus::LocalTraversalCounters() - before;
  DieIf(r->status(), std::string("RunClustering ") + job.name);
  t.out = std::move(r->value());
  return t;
}

}  // namespace

RunOutput RunClusterBatch(const RunContext& ctx) {
  const Params& p = ctx.params;
  RunOutput out;

  std::vector<double> setup_s;
  ServeWorld world;
  for (uint64_t rep = 0; rep < ctx.setup_reps; ++rep) {
    world = ServeWorld();
    const double t0 = Now();
    world = MakeBatchWorld(p, ctx.seed);
    setup_s.push_back(Now() - t0);
  }
  Tracer::Clear();
  netclus::InMemoryNetworkView view(world.gen.net, world.points);
  const std::vector<Job> jobs = MakeJobs(p, world, ctx.seed);

  // Rounds until the run's time is used; the first round's outputs are
  // the reference every later round must reproduce.
  std::vector<std::vector<double>> per_job(jobs.size());
  std::vector<double> round_ms, round_cpu_ms;
  std::vector<Timed> first;
  uint64_t runs = 0;
  const double t0 = Now();
  do {
    const double cpu0 = ProcessCpuSeconds();
    double round = 0.0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      Timed t = RunOne(view, jobs[j]);
      ++runs;
      round += t.seconds;
      per_job[j].push_back(t.seconds);
      if (first.size() < jobs.size()) {
        first.push_back(std::move(t));
      } else if (t.out.clustering.assignment !=
                     first[j].out.clustering.assignment ||
                 t.out.medoids != first[j].out.medoids) {
        out.Fail(std::string(jobs[j].name) + " differs between rounds");
      }
    }
    round_ms.push_back(round * 1e3);
    round_cpu_ms.push_back((ProcessCpuSeconds() - cpu0) * 1e3);
  } while (Now() - t0 < ctx.seconds);

  out.attempted = runs;
  out.failed = 0;
  const ClusterOutput& km = first[0].out;
  const ClusterOutput& km_idx = first[1].out;
  const ClusterOutput& db = first[2].out;
  const ClusterOutput& el = first[3].out;
  if (!netclus::SamePartition(el.clustering.assignment,
                              db.clustering.assignment)) {
    out.Fail("eps-link and DBSCAN(MinPts=2) partitions differ");
  }
  if (km.medoids != km_idx.medoids || km.cost != km_idx.cost) {
    out.Fail("k-medoids medoids/cost differ with the index on");
  }

  const double n = static_cast<double>(world.points.size());
  out.e2e.Set("setup_s", Quantile(setup_s, 0.5), "s");
  out.e2e.Set("cpu_per_op_ms", Quantile(round_cpu_ms, 0.5), "ms");
  out.detail.Set("round_ms", Quantile(round_ms, 0.5), "ms");
  for (size_t j = 0; j < jobs.size(); ++j) {
    out.detail.Set(std::string(jobs[j].name) + "_s",
                   Quantile(per_job[j], 0.5), "s");
    out.detail.Set(std::string("ari.") + jobs[j].name,
                   netclus::AdjustedRandIndex(world.points.labels(),
                                              first[j].out.clustering.assignment),
                   "ratio");
  }
  out.detail.Set("rounds", static_cast<double>(round_ms.size()), "count");
  out.detail.Set("nodes", world.gen.net.num_nodes(), "count");
  out.detail.Set("points", n, "count");

  if (ctx.traced) {
    ZeroLayerMetrics(&out.layer);
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (std::string(jobs[j].name) == "kmedoids_indexed") continue;
      out.layer.Set(std::string("graph.settled.") + jobs[j].name,
                    static_cast<double>(first[j].work.settled_nodes),
                    "count");
    }
    const netclus::KMedoidsStats& ks = km.kmedoids_stats;
    out.layer.Set("core.kmedoids_first_assign_ms",
                  ks.first_iteration_seconds * 1e3, "ms");
    out.layer.Set("core.kmedoids_swap_ms", ks.avg_swap_seconds * 1e3, "ms");
    out.layer.Set("core.kmedoids_swaps_attempted", ks.attempted_swaps,
                  "count");
    out.layer.Set("core.singlelink_nodes_expanded",
                  static_cast<double>(first[4].out.single_link_stats
                                          .nodes_expanded),
                  "count");
    out.layer.Set("core.singlelink_max_pair_heap",
                  static_cast<double>(first[4].out.single_link_stats
                                          .max_pair_heap),
                  "count");
    const netclus::KMedoidsStats& kis = km_idx.kmedoids_stats;
    if (kis.attempted_swaps > 0) {
      out.layer.Set("index.pruned_swap_share",
                    static_cast<double>(kis.pruned_swaps) / kis.attempted_swaps,
                    "ratio");
    }
    const netclus::IndexStats& is = km_idx.index_stats;
    if (is.cache_hits + is.cache_misses > 0) {
      out.layer.Set("index.cache_hit_rate",
                    static_cast<double>(is.cache_hits) /
                        static_cast<double>(is.cache_hits + is.cache_misses),
                    "ratio");
    }
    if (first[0].work.settled_nodes > 0) {
      out.layer.Set("index.settled_saved_share",
                    1.0 - static_cast<double>(first[1].work.settled_nodes) /
                              static_cast<double>(first[0].work.settled_nodes),
                    "ratio");
    }
    {
      netclus::IndexOptions io = jobs[1].spec.index;
      const double b0 = Now();
      Span span("index.DistanceIndex.Build");
      DieIf(netclus::DistanceIndex::Build(view, io, nullptr).status(),
            "DistanceIndex::Build");
      out.layer.Set("index.build_s", Now() - b0, "s");
    }

    // Disk leg: each algorithm on a fresh store and buffer, counters only.
    const uint64_t pool_bytes = p.Int("disk.pool_bytes");
    const uint32_t page = static_cast<uint32_t>(p.Int("disk.page_bytes"));
    for (size_t j = 0; j < jobs.size(); ++j) {
      const std::string name = jobs[j].name;
      if (name == "kmedoids_indexed") continue;
      std::unique_ptr<netclus::DiskNetworkBundle> bundle;
      {
        Span span("storage.DiskNetworkBundle.Create");
        netclus::Result<std::unique_ptr<netclus::DiskNetworkBundle>> b =
            netclus::DiskNetworkBundle::Create(
                world.gen.net, world.points, pool_bytes, page,
                netclus::NodePlacement::kConnectivity,
                Rng::DeriveSeed(ctx.seed, 5));
        DieIf(b.status(), "DiskNetworkBundle::Create");
        bundle = std::move(b.value());
      }
      bundle->ResetIoStats();
      Job disk_job = jobs[j];
      disk_job.span = "core.RunClustering.disk";
      Timed t = RunOne(bundle->view(), disk_job);
      if (t.out.clustering.assignment != first[j].out.clustering.assignment) {
        out.Fail(name + " on the disk store differs from in-memory");
      }
      const netclus::BufferStats& bs = bundle->buffer_manager().stats();
      const double logical = static_cast<double>(bs.logical_accesses());
      out.layer.Set("storage.logical." + name, logical, "count");
      out.layer.Set("storage.phys_reads." + name,
                    static_cast<double>(bundle->TotalPhysicalReads()),
                    "count");
      out.layer.Set("storage.hit_rate." + name,
                    logical > 0 ? static_cast<double>(bs.hits) / logical : 0.0,
                    "ratio");
    }

    ProbeGraphLayer(world, ReadMix(p, "mix"), ctx.seed,
                    p.Int("probe.per_kind"), &out.layer);
  }
  return out;
}

}  // namespace perfbench
