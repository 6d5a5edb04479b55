#include "graph/dijkstra.h"

namespace netclus {

TraversalCounters& LocalTraversalCounters() {
  thread_local TraversalCounters counters;
  return counters;
}

// Tests-only overload: allocates a fresh distance vector per call. The
// unbounded relaxation is re-expressed through the kernel so the two
// paths cannot drift.
std::vector<double> DijkstraDistances(
    const NetworkView& view, const std::vector<DijkstraSource>& sources) {
  TraversalWorkspace ws(view.num_nodes());
  DijkstraDistances<NetworkView>(view, sources, &ws);
  std::vector<double> dist(view.num_nodes(), kInfDist);
  for (NodeId n = 0; n < view.num_nodes(); ++n) dist[n] = ws.scratch.Get(n);
  return dist;
}

}  // namespace netclus
