#include "graph/dijkstra.h"

namespace netclus {

TraversalCounters& LocalTraversalCounters() {
  thread_local TraversalCounters counters;
  return counters;
}

}  // namespace netclus
