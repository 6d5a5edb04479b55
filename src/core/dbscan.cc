#include "core/dbscan.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/thread_pool.h"
#include "graph/dijkstra.h"
#include "graph/network_distance.h"

namespace netclus {

template <TraversalGraph Graph>
Result<Clustering> DbscanCluster(const NetworkView& view, const Graph& graph,
                                 const DbscanOptions& options) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (options.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be positive");
  }
  const PointId n = view.num_points();
  Clustering out;
  out.assignment.assign(n, kNoise);
  std::vector<bool> visited(n, false);  // a range query was issued for p
  int next_cluster = 0;

  // The serial algorithm issues exactly one eps-range query per point,
  // and each query is an independent bounded expansion — the
  // embarrassingly-parallel hot path. With > 1 worker all N
  // neighborhoods are computed up front (each worker owning one
  // TraversalWorkspace), and the growth phase below consumes the cache;
  // since a neighborhood is a pure function of (view, p, eps), the
  // result is bit-identical to the serial on-the-fly run. Only a
  // snapshot is shared across workers: a NetworkView may be disk-backed,
  // and its buffer manager is not thread-safe, so a run over a view is
  // serial.
  uint32_t threads =
      std::min<uint32_t>(ResolveNumThreads(options.num_threads), n > 0 ? n : 1);
  if constexpr (!std::is_same_v<Graph, FrozenGraph>) threads = 1;
  const bool precomputed = threads > 1;
  std::vector<std::vector<RangeResult>> cache;
  if (precomputed) {
    cache.resize(n);
    ThreadPool pool(threads);
    std::vector<TraversalWorkspace> workspaces;
    workspaces.reserve(pool.size());
    for (uint32_t w = 0; w < pool.size(); ++w) {
      workspaces.emplace_back(view.num_nodes());
    }
    // The snapshot is immutable, so all workers share it. Each worker
    // sums its queries' counter deltas into its own slot, and the
    // calling thread is credited with the total, so a caller's diff
    // counts every range query at any thread count.
    std::vector<TraversalCounters> work(pool.size());
    pool.ParallelFor(n, [&](size_t p, uint32_t worker) {
      const TraversalCounters before = LocalTraversalCounters();
      RangeQuery(view, graph, static_cast<PointId>(p), options.eps,
                 &workspaces[worker], &cache[p]);
      work[worker] = work[worker] + (LocalTraversalCounters() - before);
    });
    TraversalCounters& tc = LocalTraversalCounters();
    for (const TraversalCounters& w : work) tc = tc + w;
  }

  std::optional<TraversalWorkspace> serial_ws;
  if (!precomputed) serial_ws.emplace(view.num_nodes());
  std::vector<RangeResult> buffer;
  auto neighborhood = [&](PointId p) -> const std::vector<RangeResult>& {
    if (precomputed) return cache[p];
    RangeQuery(view, graph, p, options.eps, &*serial_ws, &buffer);
    return buffer;
  };

  for (PointId p = 0; p < n; ++p) {
    if (visited[p]) continue;
    visited[p] = true;
    const std::vector<RangeResult>& seed_hood = neighborhood(p);
    if (seed_hood.size() < options.min_pts) continue;  // noise (for now)

    int cluster_id = next_cluster++;
    out.assignment[p] = cluster_id;
    std::deque<PointId> seeds;
    for (const RangeResult& r : seed_hood) {
      if (r.id != p) seeds.push_back(r.id);
    }
    while (!seeds.empty()) {
      PointId q = seeds.front();
      seeds.pop_front();
      if (out.assignment[q] == kNoise) {
        out.assignment[q] = cluster_id;  // border or not-yet-expanded point
      } else if (out.assignment[q] != cluster_id) {
        continue;  // already claimed by an earlier cluster (border point)
      }
      if (visited[q]) continue;
      visited[q] = true;
      const std::vector<RangeResult>& hood = neighborhood(q);
      if (hood.size() >= options.min_pts) {
        // q is core: its whole neighborhood is density-reachable.
        for (const RangeResult& r : hood) {
          if (out.assignment[r.id] == kNoise || !visited[r.id]) {
            seeds.push_back(r.id);
          }
        }
      }
    }
  }
  NormalizeClustering(&out);
  return out;
}

template Result<Clustering> DbscanCluster(const NetworkView&,
                                          const FrozenGraph&,
                                          const DbscanOptions&);
template Result<Clustering> DbscanCluster(const NetworkView&,
                                          const NetworkView&,
                                          const DbscanOptions&);

}  // namespace netclus
