// Bench smoke: a minutes-scale micro pass over the traversal substrates
// on a small generated network — the `run_all.sh bench-smoke` target.
// The plain range query runs once; the two consumers of the distance
// index (the thresholded point distance and k-medoids) run index-off and
// index-on and print the settled-node / heap-pop reduction. The whole
// table is emitted as machine-readable BENCH_smoke.json via
// BenchRecorder so CI can diff substrate work across revisions. Each
// off/on pair is a gate: the harness prints FAIL and exits 1 unless the
// `_on` row settles fewer nodes and has a lower median wall time than
// its `_off` twin — every kept accelerator must pay for itself. The
// k-medoids contrast times the engine directly over the live view with a
// prebuilt accelerator; routing through RunClustering would rebuild the
// index inside the measured section.
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
  // work and time and the JSON plumbing works, not absolute throughput.
  GeneratedNetwork gen = GenerateRoadNetwork({3000, 1.3, 0.3, 99});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 600, 100)).value();
  InMemoryNetworkView mem(gen.net, points);
  const NetworkView& view = mem;
  std::printf("bench-smoke: %u nodes, %zu edges, %u points\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size());

  IndexOptions io;
  io.enable = true;
  io.num_landmarks = 8;
  std::unique_ptr<DistanceIndex> index =
      std::move(DistanceIndex::Build(view, io, nullptr).value());

  const double eps = SampledEps(view);
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

  // The off/on pairs' totals and median seconds, for the gates below.
  struct Pair {
    const char* name;
    TraversalCounters work[2];
    double median_s[2] = {0.0, 0.0};
  };
  auto record = [&](Pair* pair, bool on, std::vector<double> samples,
                    const TraversalCounters& t,
                    const std::vector<std::pair<std::string, double>>& extra) {
    report((std::string(pair->name) + (on ? "_on" : "_off")).c_str(), samples,
           t, extra);
    std::sort(samples.begin(), samples.end());
    pair->work[on] = t;
    pair->median_s[on] = samples[samples.size() / 2];
  };

  // Range queries over a deterministic center set (the DBSCAN / ε-Link
  // primitive; no index reads it).
  const int kQueries = 200;
  {
    TraversalWorkspace ws(gen.net.num_nodes());
    std::vector<RangeResult> out;
    TraversalCounters total;
    std::vector<double> samples;
    Rng rng(6);
    uint64_t results = 0;
    for (int i = 0; i < kQueries; ++i) {
      PointId p = static_cast<PointId>(rng.NextBounded(points.size()));
      samples.push_back(
          Timed(&total, [&] { RangeQuery(view, view, p, eps, &ws, &out); }));
      results += out.size();
    }
    report("range_query", samples, total,
           {{"avg_results", static_cast<double>(results) / kQueries}});
  }

  // Point-to-point distances under a threshold cut (the k-medoids inner
  // question "is d(p, m) below the current best"), index off vs on
  // (cache hits + lower-bound cutoffs skip whole expansions).
  Pair point_distance{"point_distance", {}, {}};
  {
    TraversalWorkspace ws(gen.net.num_nodes());
    for (int pass = 0; pass < 2; ++pass) {
      bool on = pass == 1;
      TraversalCounters total;
      std::vector<double> samples;
      Rng rng(7);
      for (int i = 0; i < 2000; ++i) {
        PointId p = static_cast<PointId>(rng.NextBounded(points.size()));
        PointId q = static_cast<PointId>(rng.NextBounded(points.size()));
        samples.push_back(Timed(&total, [&] {
          (void)PointNetworkDistance(view, view, p, q, &ws,
                                     on ? index.get() : nullptr, eps);
        }));
      }
      IndexStats s = index->Stats();
      record(&point_distance, on, std::move(samples), total,
             {{"cache_hits", static_cast<double>(s.cache_hits)}});
    }
  }

  // Full k-medoids runs, index off vs on (ALT lower bounds prune
  // provably non-improving swap evaluations; trajectories identical).
  Pair kmedoids{"kmedoids", {}, {}};
  {
    KMedoidsOptions ko;
    ko.k = 8;
    ko.seed = 11;
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
      record(&kmedoids, on, std::move(samples), total,
             {{"pruned_swaps", static_cast<double>(pruned)},
              {"bound_seconds", bound_s[bound_s.size() / 2]},
              {"cost", cost}});
    }
  }

  std::string path = rec.Write();
  std::printf("\nwrote %s\n", path.empty() ? "(json write FAILED)"
                                           : path.c_str());
  if (path.empty()) return 1;
  int failed = 0;
  for (const Pair* pair : {&point_distance, &kmedoids}) {
    const uint64_t off = pair->work[0].settled_nodes;
    const uint64_t on = pair->work[1].settled_nodes;
    if (on >= off) {
      std::printf("FAIL: %s_on settles %llu nodes, %s_off %llu\n", pair->name,
                  static_cast<unsigned long long>(on), pair->name,
                  static_cast<unsigned long long>(off));
      ++failed;
    } else if (pair->median_s[1] >= pair->median_s[0]) {
      std::printf("FAIL: %s_on median %.4f ms is not below %s_off %.4f ms\n",
                  pair->name, pair->median_s[1] * 1e3, pair->name,
                  pair->median_s[0] * 1e3);
      ++failed;
    } else {
      std::printf("OK: %s_on settles fewer nodes and runs %.2fx faster than "
                  "%s_off\n",
                  pair->name, pair->median_s[0] / pair->median_s[1],
                  pair->name);
    }
  }
  return failed == 0 ? 0 : 1;
}
