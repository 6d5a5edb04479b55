// Bench smoke: a minutes-scale micro pass over the substrates the
// distance index accelerates, on a small generated network — the
// `run_all.sh bench-smoke` target. Each benchmark runs index-off and
// index-on, prints the settled-node / heap-pop reduction, and the whole
// table is emitted as machine-readable BENCH_smoke.json via
// BenchRecorder so CI can diff substrate work across revisions. The
// k-medoids pair is a gate: the harness prints FAIL and exits 1 unless
// kmedoids_on settles fewer nodes and has a lower median wall time than
// kmedoids_off. The contrast times the k-medoids engine directly over
// the live view with a prebuilt accelerator; routing through
// RunClustering would rebuild the index inside the measured section.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/kmedoids.h"
#include "graph/network_distance.h"
#include "index/distance_index.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

// One timed sample; the counter delta accumulates into `total`.
template <typename Fn>
double Timed(TraversalCounters* total, const Fn& fn) {
  TraversalCounters before = LocalTraversalCounters();
  WallTimer timer;
  fn();
  double s = timer.ElapsedSeconds();
  *total = *total + (LocalTraversalCounters() - before);
  return s;
}

}  // namespace

int main() {
  // Small on purpose: the smoke pass proves the index reduces traversal
  // work and the JSON plumbing works, not absolute throughput.
  GeneratedNetwork gen = GenerateRoadNetwork({3000, 1.3, 0.3, 99});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 600, 100)).value();
  InMemoryNetworkView view(gen.net, points);
  std::printf("bench-smoke: %u nodes, %zu edges, %u points\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size());

  IndexOptions io;
  io.enable = true;
  io.num_landmarks = 8;
  std::unique_ptr<DistanceIndex> index =
      std::move(DistanceIndex::Build(view, io, nullptr).value());

  // eps adapted to the network's scale: a fraction of the median sampled
  // point-pair distance, so the expansion covers a real neighborhood on
  // any generator parameterization.
  double eps;
  {
    NodeScratch scratch(gen.net.num_nodes());
    std::vector<double> sample;
    Rng rng(12);
    for (int i = 0; i < 64; ++i) {
      PointId p = static_cast<PointId>(rng.NextBounded(points.size()));
      PointId q = static_cast<PointId>(rng.NextBounded(points.size()));
      double d = PointNetworkDistance(view, p, q, &scratch);
      if (d < kInfDist) sample.push_back(d);
    }
    std::sort(sample.begin(), sample.end());
    eps = 0.25 * sample[sample.size() / 2];
  }
  std::printf("eps = %.3f\n", eps);

  BenchRecorder rec("smoke");
  PrintRow({"bench", "median_ms", "settled", "heap_pops"}, 22);

  auto report = [&](const char* name, const std::vector<double>& samples,
                    const TraversalCounters& t,
                    const std::vector<std::pair<std::string, double>>& extra =
                        {}) {
    rec.Add(name, samples, t, extra);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    PrintRow({name, Fmt(sorted[sorted.size() / 2] * 1e3),
              std::to_string(t.settled_nodes), std::to_string(t.heap_pops)},
             22);
  };

  // Range queries, index off vs on (Voronoi floor pruning + landmark
  // expansion bound), over a deterministic center set.
  const int kQueries = 200;
  {
    TraversalWorkspace ws(gen.net.num_nodes());
    std::vector<RangeResult> out;
    for (int pass = 0; pass < 2; ++pass) {
      bool on = pass == 1;
      TraversalCounters total;
      std::vector<double> samples;
      Rng rng(6);
      uint64_t results = 0;
      for (int i = 0; i < kQueries; ++i) {
        PointId p = static_cast<PointId>(rng.NextBounded(points.size()));
        samples.push_back(Timed(&total, [&] {
          if (on) {
            RangeQuery(view, p, eps, &ws, index.get(), &out);
          } else {
            RangeQuery(view, p, eps, &ws, &out);
          }
        }));
        results += out.size();
      }
      report(on ? "range_query_on" : "range_query_off", samples, total,
             {{"avg_results", static_cast<double>(results) / kQueries}});
    }
  }

  // Point-to-point distances under a threshold cut (the k-medoids inner
  // question "is d(p, m) below the current best"), index off vs on
  // (cache hits + lower-bound cutoffs skip whole expansions).
  {
    NodeScratch scratch(gen.net.num_nodes());
    for (int pass = 0; pass < 2; ++pass) {
      bool on = pass == 1;
      TraversalCounters total;
      std::vector<double> samples;
      Rng rng(7);
      for (int i = 0; i < 2000; ++i) {
        PointId p = static_cast<PointId>(rng.NextBounded(points.size()));
        PointId q = static_cast<PointId>(rng.NextBounded(points.size()));
        samples.push_back(Timed(&total, [&] {
          double d = on ? PointNetworkDistance(view, p, q, &scratch,
                                               index.get(), eps)
                        : PointNetworkDistance(view, p, q, &scratch);
          (void)d;
        }));
      }
      IndexStats s = index->Stats();
      report(on ? "point_distance_on" : "point_distance_off", samples, total,
             {{"cache_hits", static_cast<double>(s.cache_hits)}});
    }
  }

  // Full k-medoids runs, index off vs on (ALT lower bounds prune
  // provably non-improving swap evaluations; trajectories identical).
  // The index must pay for itself: the gate below requires the "on" run
  // to settle fewer nodes and finish faster than the "off" run.
  TraversalCounters kmedoids_work[2];
  double kmedoids_median_s[2] = {0.0, 0.0};
  {
    KMedoidsOptions ko;
    ko.k = 8;
    ko.seed = 11;
    index->InvalidateCache();
    for (int pass = 0; pass < 2; ++pass) {
      bool on = pass == 1;
      TraversalCounters total;
      std::vector<double> samples;
      std::vector<double> bound_s;
      uint32_t pruned = 0;
      double cost = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        samples.push_back(Timed(&total, [&] {
          KMedoidsResult r =
              std::move(KMedoidsCluster<NetworkView>(
                            view, view, ko, on ? index.get() : nullptr)
                            .value());
          pruned = r.stats.pruned_swaps;
          cost = r.cost;
          bound_s.push_back(r.stats.bound_seconds);
        }));
      }
      std::sort(bound_s.begin(), bound_s.end());
      report(on ? "kmedoids_on" : "kmedoids_off", samples, total,
             {{"pruned_swaps", static_cast<double>(pruned)},
              {"bound_seconds", bound_s[bound_s.size() / 2]},
              {"cost", cost}});
      std::sort(samples.begin(), samples.end());
      kmedoids_work[pass] = total;
      kmedoids_median_s[pass] = samples[samples.size() / 2];
    }
  }

  std::string path = rec.Write();
  std::printf("\nwrote %s\n", path.empty() ? "(json write FAILED)"
                                           : path.c_str());
  if (path.empty()) return 1;
  if (kmedoids_work[1].settled_nodes >= kmedoids_work[0].settled_nodes) {
    std::printf("FAIL: kmedoids_on settles %llu nodes, kmedoids_off %llu\n",
                static_cast<unsigned long long>(kmedoids_work[1].settled_nodes),
                static_cast<unsigned long long>(kmedoids_work[0].settled_nodes));
    return 1;
  }
  if (kmedoids_median_s[1] >= kmedoids_median_s[0]) {
    std::printf("FAIL: kmedoids_on median %.3f ms is not below kmedoids_off "
                "%.3f ms\n",
                kmedoids_median_s[1] * 1e3, kmedoids_median_s[0] * 1e3);
    return 1;
  }
  std::printf("OK: kmedoids_on settles fewer nodes and runs %.2fx faster "
              "than kmedoids_off\n",
              kmedoids_median_s[0] / kmedoids_median_s[1]);
  return 0;
}
