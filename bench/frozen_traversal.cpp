// Frozen-traversal contrast: the same multi-source Dijkstra assignment
// pass (the k-medoids inner loop) over the live NetworkView (virtual
// dispatch + std::function per neighbor) and over the FrozenGraph CSR
// snapshot (inline pointer walk). The refactor's contract is measured
// directly:
//   - the settled-node / heap-op counters must match EXACTLY (the
//     snapshot replays the view's neighbor order, so the traversal is
//     the same computation) — any mismatch exits 1;
//   - the snapshot path must be >= 1.3x faster (best of interleaved
//     reps) — the de-virtualization payoff the PR claims.
// It also records what the snapshot costs per run: the freeze time
// (best of reps) and the bytes of its point handle — one group number
// per half-edge slot plus one weight per point group, which points-only
// successors that open no group co-own; the adjacency block and the
// PointSet are co-owned too.
// Emitted as BENCH_frozen_traversal.json for CI diffing; wired into
// `run_all.sh bench-smoke`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

// Best-of-reps: under a loaded machine the minimum approximates the
// true cost of the work, where a median still carries scheduler noise —
// and both paths get the same number of chances, interleaved.
double Best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace

int main() {
  // Large enough that the per-neighbor dispatch cost dominates cache
  // noise; the assignment pass settles every reachable node.
  GeneratedNetwork gen = GenerateRoadNetwork({30000, 1.3, 0.3, 991});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 2000, 992)).value();
  InMemoryNetworkView view(gen.net, points);
  const int kFreezeReps = 5;
  std::vector<double> freeze_s;
  FrozenGraph frozen;
  for (int rep = 0; rep < kFreezeReps; ++rep) {
    WallTimer t;
    frozen = std::move(view.Freeze()).value();
    freeze_s.push_back(t.ElapsedSeconds());
  }
  std::printf("frozen-traversal: %u nodes, %zu edges, %zu half-edge slots\n",
              gen.net.num_nodes(), gen.net.num_edges(),
              frozen.num_half_edges());
  std::printf("freeze: best %.3f ms; snapshot's own bytes: %zu (%zu slot "
              "groups, %zu group weights; %u points co-owned)\n",
              Best(freeze_s) * 1e3, frozen.own_bytes(),
              frozen.num_half_edges(), points.num_groups(), points.size());

  // k multi-source seeds, as in the concurrent-expansion assignment
  // phase: every node is settled by its nearest seed.
  std::vector<DijkstraSource> sources;
  Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    sources.push_back(DijkstraSource{
        static_cast<NodeId>(rng.NextBounded(gen.net.num_nodes())), 0.0});
  }

  const int kReps = 15;
  TraversalWorkspace ws(gen.net.num_nodes());
  std::vector<double> view_s, frozen_s;
  TraversalCounters view_total, frozen_total;
  std::vector<double> view_dist(gen.net.num_nodes());
  bool distances_match = true;

  // Interleaved reps: both paths see the same cache / frequency state.
  for (int rep = 0; rep < kReps; ++rep) {
    {
      TraversalCounters before = LocalTraversalCounters();
      WallTimer t;
      DijkstraDistances(view, sources, &ws);
      view_s.push_back(t.ElapsedSeconds());
      view_total = view_total + (LocalTraversalCounters() - before);
      for (NodeId n = 0; n < gen.net.num_nodes(); ++n) {
        view_dist[n] = ws.scratch.Get(n);
      }
    }
    {
      TraversalCounters before = LocalTraversalCounters();
      WallTimer t;
      DijkstraDistances(frozen, sources, &ws);
      frozen_s.push_back(t.ElapsedSeconds());
      frozen_total = frozen_total + (LocalTraversalCounters() - before);
      for (NodeId n = 0; n < gen.net.num_nodes(); ++n) {
        if (ws.scratch.Get(n) != view_dist[n]) distances_match = false;
      }
    }
  }

  double speedup = Best(view_s) / Best(frozen_s);
  PrintRow({"path", "best_ms", "settled", "heap_pushes", "heap_pops"}, 16);
  PrintRow({"view", Fmt(Best(view_s) * 1e3),
            std::to_string(view_total.settled_nodes),
            std::to_string(view_total.heap_pushes),
            std::to_string(view_total.heap_pops)},
           16);
  PrintRow({"frozen", Fmt(Best(frozen_s) * 1e3),
            std::to_string(frozen_total.settled_nodes),
            std::to_string(frozen_total.heap_pushes),
            std::to_string(frozen_total.heap_pops)},
           16);
  std::printf("speedup (view / frozen): %.2fx\n", speedup);

  BenchRecorder rec("frozen_traversal");
  rec.Add("freeze", freeze_s, {},
          {{"snapshot_own_bytes", static_cast<double>(frozen.own_bytes())}});
  rec.Add("assign_view", view_s, view_total, {});
  rec.Add("assign_frozen", frozen_s, frozen_total,
          {{"speedup_vs_view", speedup}});
  std::string path = rec.Write();
  std::printf("wrote %s\n", path.empty() ? "(json write FAILED)"
                                         : path.c_str());
  if (path.empty()) return 1;

  // Hard contracts, not soft regressions: same counters, same
  // distances, and the payoff the refactor exists for.
  bool counters_match =
      view_total.settled_nodes == frozen_total.settled_nodes &&
      view_total.heap_pushes == frozen_total.heap_pushes &&
      view_total.heap_pops == frozen_total.heap_pops;
  if (!counters_match) {
    std::printf("FAIL: traversal counters differ between view and frozen\n");
    return 1;
  }
  if (!distances_match) {
    std::printf("FAIL: settled distances differ between view and frozen\n");
    return 1;
  }
  if (speedup < 1.3) {
    std::printf("FAIL: speedup %.2fx below the 1.3x contract\n", speedup);
    return 1;
  }
  std::printf("OK: identical traversal, %.2fx faster over the snapshot\n",
              speedup);
  return 0;
}
