// Bench smoke: a minutes-scale micro pass over the traversal substrates
// on a small generated network — the `run_all.sh bench-smoke` target.
// The plain range query and a k-medoids search through RunClustering
// are ungated rows; the served point distance runs the way the query
// server serves it — over a frozen snapshot carrying landmark tables,
// whose build is its own `landmark_build` row — cold and warm through
// the query layer's distance cache, and once more over the view, which
// has no tables (`served_distance_view`). The whole table is emitted as
// machine-readable BENCH_smoke.json via BenchRecorder so CI can diff
// substrate work across revisions. Two gates: the harness prints FAIL
// and exits 1 unless the warm row settles fewer nodes and has a lower
// median wall time than the cold one — the cache must pay for itself —
// and every warm served distance equals its cold payload bit for bit;
// and unless every view payload equals its cold one bit for bit and the
// cold pass settles at most a fifth of the view pass's nodes — the
// landmark bounds must pay for themselves without changing an answer.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"
#include "graph/network_distance.h"
#include "netclus.h"
#include "server/distance_cache.h"
#include "server/query.h"

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
  // Small on purpose: the smoke pass proves the cache reduces traversal
  // work and time and the JSON plumbing works, not absolute throughput.
  GeneratedNetwork gen = GenerateRoadNetwork({3000, 1.3, 0.3, 99});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 600, 100)).value();
  InMemoryNetworkView mem(gen.net, points);
  const NetworkView& view = mem;
  std::printf("bench-smoke: %u nodes, %zu edges, %u points\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size());

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

  // The pair's totals and median seconds, for the gate below. Row
  // `name_<row[1]>` must beat row `name_<row[0]>`.
  struct Pair {
    const char* name;
    const char* row[2];
    TraversalCounters work[2];
    double median_s[2] = {0.0, 0.0};
  };
  auto record = [&](Pair* pair, int i, std::vector<double> samples,
                    const TraversalCounters& t,
                    const std::vector<std::pair<std::string, double>>& extra) {
    report((std::string(pair->name) + "_" + pair->row[i]).c_str(), samples, t,
           extra);
    std::sort(samples.begin(), samples.end());
    pair->work[i] = t;
    pair->median_s[i] = samples[samples.size() / 2];
  };

  // Range queries over a deterministic center set (the DBSCAN / ε-Link
  // primitive).
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

  // The served snapshot: the view frozen, carrying landmark tables like
  // every epoch a query server serves distances from. Building the
  // tables bumps no traversal counter.
  FrozenGraph plain = std::move(mem.Freeze()).value();
  std::shared_ptr<const LandmarkTables> tables;
  {
    TraversalCounters total;
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      samples.push_back(
          Timed(&total, [&] { tables = LandmarkTables::Build(plain); }));
    }
    report("landmark_build", samples, total,
           {{"landmarks", static_cast<double>(LandmarkTables::kCount)},
            {"bytes", static_cast<double>(tables->bytes())}});
  }
  const FrozenGraph served = plain.WithLandmarks(tables);

  // Served point-to-point distances through the query layer over the
  // snapshot, with one fresh distance cache: cold (every pair a miss,
  // computed and stored), then the same pairs warm (every pair a hit).
  // The warm payloads must equal the cold ones bit for bit. Then the
  // same pairs over the view, without tables or cache: the payloads must
  // equal the cold ones bit for bit too.
  Pair served_distance{"served_distance", {"cold", "warm"}, {}, {}};
  uint32_t payload_mismatches = 0;
  uint32_t view_mismatches = 0;
  TraversalCounters view_work;
  {
    TraversalWorkspace ws(gen.net.num_nodes());
    DistanceCache cache(1 << 16);
    std::vector<QueryRequest> requests;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      ObjectId a = rng.NextBounded(points.size());
      ObjectId b = rng.NextBounded(points.size());
      requests.push_back(QueryRequest::PointDistance(a, b));
    }
    std::vector<double> cold(requests.size());
    QueryResponse out;
    for (int pass = 0; pass < 3; ++pass) {
      TraversalCounters total;
      std::vector<double> samples;
      for (size_t i = 0; i < requests.size(); ++i) {
        Status st;
        samples.push_back(Timed(&total, [&] {
          st = pass < 2 ? ExecuteQueryInto(view, &served, requests[i], &ws,
                                           &cache, nullptr, &out)
                        : ExecuteQueryInto(view, nullptr, requests[i], &ws,
                                           nullptr, nullptr, &out);
        }));
        if (pass == 0) cold[i] = out.distance;
        if (!st.ok() ||
            std::memcmp(&out.distance, &cold[i], sizeof(double)) != 0) {
          ++(pass < 2 ? payload_mismatches : view_mismatches);
        }
      }
      if (pass < 2) {
        record(&served_distance, pass, std::move(samples), total,
               {{"cache_hits", static_cast<double>(cache.counters().hits)}});
      } else {
        report("served_distance_view", samples, total);
        view_work = total;
      }
    }
  }

  // Full k-medoids runs through RunClustering (ungated; the row records
  // the search's settles and heap pops).
  {
    KMedoidsOptions ko;
    ko.k = 8;
    ko.seed = 11;
    TraversalCounters total;
    std::vector<double> samples;
    double cost = 0.0;
    uint32_t attempted = 0;
    for (int rep = 0; rep < 3; ++rep) {
      samples.push_back(Timed(&total, [&] {
        ClusterOutput out =
            std::move(RunClustering(view, MakeSpec(ko)).value());
        cost = out.cost;
        attempted = out.kmedoids_stats.attempted_swaps;
      }));
    }
    report("kmedoids", samples, total,
           {{"attempted_swaps", static_cast<double>(attempted)},
            {"cost", cost}});
  }

  std::string path = rec.Write();
  std::printf("\nwrote %s\n", path.empty() ? "(json write FAILED)"
                                           : path.c_str());
  if (path.empty()) return 1;
  int failed = 0;
  if (payload_mismatches > 0) {
    std::printf("FAIL: %u served distances failed or differ warm from cold\n",
                payload_mismatches);
    ++failed;
  }
  const uint64_t cold_settled = served_distance.work[0].settled_nodes;
  if (view_mismatches > 0) {
    std::printf("FAIL: %u served distances differ between the snapshot "
                "with landmarks and the view without\n",
                view_mismatches);
    ++failed;
  } else if (5 * cold_settled > view_work.settled_nodes) {
    std::printf("FAIL: served_distance_cold settles %llu nodes, more than "
                "a fifth of served_distance_view's %llu\n",
                static_cast<unsigned long long>(cold_settled),
                static_cast<unsigned long long>(view_work.settled_nodes));
    ++failed;
  } else {
    std::printf("OK: served_distance_cold settles %.1fx fewer nodes than "
                "served_distance_view, every payload bit-identical\n",
                static_cast<double>(view_work.settled_nodes) /
                    static_cast<double>(cold_settled));
  }
  const Pair& pair = served_distance;
  const uint64_t first = pair.work[0].settled_nodes;
  const uint64_t second = pair.work[1].settled_nodes;
  if (second >= first) {
    std::printf("FAIL: %s_%s settles %llu nodes, %s_%s %llu\n", pair.name,
                pair.row[1], static_cast<unsigned long long>(second),
                pair.name, pair.row[0],
                static_cast<unsigned long long>(first));
    ++failed;
  } else if (pair.median_s[1] >= pair.median_s[0]) {
    std::printf("FAIL: %s_%s median %.4f ms is not below %s_%s %.4f ms\n",
                pair.name, pair.row[1], pair.median_s[1] * 1e3, pair.name,
                pair.row[0], pair.median_s[0] * 1e3);
    ++failed;
  } else {
    std::printf("OK: %s_%s settles fewer nodes and runs %.2fx faster than "
                "%s_%s\n",
                pair.name, pair.row[1], pair.median_s[0] / pair.median_s[1],
                pair.name, pair.row[0]);
  }
  return failed == 0 ? 0 : 1;
}
