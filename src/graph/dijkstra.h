// Dijkstra shortest-path primitives: a header-template traversal kernel
// over any graph type.
//
// Every clustering algorithm in the paper is built on (multi-source,
// possibly bounded) Dijkstra traversals; these helpers centralize the
// priority-queue mechanics and the epoch-trick scratch space that lets
// thousands of bounded expansions run without O(|V|) reinitialization.
//
// The kernel (DijkstraExpandBounded) is parameterized on the graph type
// and the settle functor, so over a FrozenGraph with a lambda the inner
// loop compiles to a plain CSR pointer walk — no virtual dispatch, no
// type-erased callback. Neighbor iteration is reached through the
// VisitNeighbors(graph, node, fn) adapter, overloaded per graph type;
// the NetworkView adapter below is the bridge to the virtual interface
// that a disk-backed view, which is never frozen, is traversed through.
#ifndef NETCLUS_GRAPH_DIJKSTRA_H_
#define NETCLUS_GRAPH_DIJKSTRA_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// A Dijkstra start: node `node` begins with distance `dist` (supports
/// starting "from a point" by seeding both endpoint nodes of its edge).
struct DijkstraSource {
  NodeId node = kInvalidNodeId;
  double dist = 0.0;
};

/// \brief Per-thread monotonic traversal counters.
///
/// Every expansion in the library (the primitives below, the range
/// queries built on them, the k-medoids concurrent expansion, the ε-Link
/// and Single-Link expansions) bumps these, so
/// benches can report settled-node and heap-op counts as first-class
/// metrics next to wall time. Counters are thread-local: a caller
/// snapshots LocalTraversalCounters() before and after a measured
/// section and diffs. The parallel phases of core/ (k-medoids restarts,
/// DBSCAN's range precompute) add their workers' deltas to the calling
/// thread's counters, so such a diff covers them too.
struct TraversalCounters {
  uint64_t heap_pushes = 0;
  uint64_t heap_pops = 0;
  uint64_t settled_nodes = 0;

  TraversalCounters operator-(const TraversalCounters& other) const {
    return TraversalCounters{heap_pushes - other.heap_pushes,
                             heap_pops - other.heap_pops,
                             settled_nodes - other.settled_nodes};
  }
  TraversalCounters operator+(const TraversalCounters& other) const {
    return TraversalCounters{heap_pushes + other.heap_pushes,
                             heap_pops + other.heap_pops,
                             settled_nodes + other.settled_nodes};
  }
};

/// The calling thread's counters (never reset; diff snapshots instead).
TraversalCounters& LocalTraversalCounters();

/// \brief Reusable per-node distance array with O(1) logical reset.
///
/// Each NewEpoch() invalidates all stored distances without touching
/// memory; repeated bounded expansions over a large graph stay
/// proportional to the region actually visited. The traversal entry
/// points reach it as TraversalWorkspace::scratch.
class NodeScratch {
 public:
  explicit NodeScratch(NodeId num_nodes)
      : dist_(num_nodes, 0.0), epoch_(num_nodes, 0), current_(0) {}

  /// Invalidates all distances.
  void NewEpoch() { ++current_; }

  bool Has(NodeId n) const { return epoch_[n] == current_; }
  double Get(NodeId n) const { return Has(n) ? dist_[n] : kInfDist; }
  void Set(NodeId n, double d) {
    dist_[n] = d;
    epoch_[n] = current_;
  }
  NodeId size() const { return static_cast<NodeId>(dist_.size()); }

 private:
  std::vector<double> dist_;
  std::vector<uint64_t> epoch_;
  uint64_t current_;
};

/// A (distance, node) min-heap element of a Dijkstra traversal; exposed so
/// TraversalWorkspace can own the reusable heap storage.
struct DijkstraHeapEntry {
  double dist;
  NodeId node;
  bool operator>(const DijkstraHeapEntry& other) const {
    return dist > other.dist;
  }
};

/// Default settle count between cancellation polls — cheap enough that
/// an uncancelled traversal is indistinguishable from one run without a
/// token, frequent enough that an expansion abandons work within
/// microseconds of its deadline passing.
inline constexpr uint32_t kDefaultCancelCheckInterval = 1024;

/// \brief Cooperative cancellation for one traversal: an absolute
/// deadline on the steady clock.
///
/// The kernel compares the clock against `deadline` every
/// `check_interval` settled nodes; once the deadline has passed the
/// expansion abandons the rest of its work and sets `triggered`. With no
/// deadline (the default) the token is inert: the clock is never read,
/// and the kernel's results, settle order, and TraversalCounters are
/// bit-identical to a run with no token at all.
struct TraversalCancel {
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  Clock::time_point deadline = kNoDeadline;
  uint32_t check_interval = kDefaultCancelCheckInterval;
  /// Set by the kernel when it abandoned the expansion; callers must
  /// treat any distances/results produced by that run as garbage.
  bool triggered = false;

  bool ShouldCancel() const {
    return deadline != kNoDeadline && Clock::now() >= deadline;
  }
};

/// \brief Reusable per-traversal state: node distances plus heap storage.
///
/// Constructing one is O(|V|); reusing it makes every subsequent
/// traversal proportional to the region visited, with zero allocation in
/// the steady state. One workspace serves one traversal at a time —
/// each thread that traverses owns its own (a query server worker, one
/// per ParallelFor worker in DBSCAN's precompute).
struct TraversalWorkspace {
  explicit TraversalWorkspace(NodeId num_nodes) : scratch(num_nodes) {}

  NodeScratch scratch;
  std::vector<DijkstraHeapEntry> heap;  ///< binary-heap storage, reused
  std::vector<std::pair<NodeId, double>> settled;  ///< settle-order log
  std::vector<DijkstraSource> sources;  ///< expansion seeds, reused
  /// Settle-order stamps of the range-query collection phase: a node is
  /// stamped with `stamp_epoch` when its edges are inspected, so each
  /// edge is inspected once, from whichever endpoint settled first.
  /// Sized on first use.
  std::vector<uint64_t> stamp;
  uint64_t stamp_epoch = 0;
  /// Cancellation token threaded into the kernel by the workspace-based
  /// entry points. Inert (no deadline) by default; the query server arms
  /// it per request with the request's deadline.
  TraversalCancel cancel;
};

/// Neighbor-iteration adapter for the template kernel: the NetworkView
/// side funnels through the virtual call (one type-erased callback built
/// per visited node). A FrozenGraph gets the inlined CSR walk instead (see
/// graph/frozen_graph.h for that overload).
template <typename Fn>
inline void VisitNeighbors(const NetworkView& view, NodeId n, Fn&& fn) {
  view.ForEachNeighbor(n, fn);
}

namespace internal {

// Min-heap primitives over the reusable vector storage (std::greater
// turns the max-heap of push_heap/pop_heap into a min-heap on dist).
inline void HeapPushEntry(std::vector<DijkstraHeapEntry>* heap, double dist,
                          NodeId node) {
  heap->push_back(DijkstraHeapEntry{dist, node});
  std::push_heap(heap->begin(), heap->end(), std::greater<>());
  ++LocalTraversalCounters().heap_pushes;
}

inline DijkstraHeapEntry HeapPopEntry(std::vector<DijkstraHeapEntry>* heap) {
  std::pop_heap(heap->begin(), heap->end(), std::greater<>());
  DijkstraHeapEntry top = heap->back();
  heap->pop_back();
  ++LocalTraversalCounters().heap_pops;
  return top;
}

}  // namespace internal

/// \brief The traversal kernel: bounded multi-source Dijkstra over any
/// graph type reachable through VisitNeighbors.
///
/// Settled distances land in `ws->scratch` (a fresh epoch is started);
/// `ws->heap` is cleared but keeps its capacity (`ws->settled` is
/// untouched — it belongs to higher-level callers). `on_settle(node,
/// dist)` is invoked once per settled node with dist <= `bound` and
/// returns false to abandon the expansion. Instantiated with a
/// FrozenGraph and a lambda, the inner loop carries no virtual dispatch
/// and no type-erased callback — the de-virtualized hot path every
/// in-memory run takes.
///
/// `ws->cancel` is polled every `check_interval` settled nodes; once its
/// deadline has passed the expansion abandons its remaining work, sets
/// `triggered`, and returns — partial distances in the scratch must then
/// be discarded by the caller. When no cancellation fires (or the token
/// is inert, the default) the traversal, its settle order, and its
/// counters are bit-identical to an uncancellable run.
template <typename Graph, typename SettleFn>
void DijkstraExpandBounded(const Graph& graph,
                           const std::vector<DijkstraSource>& sources,
                           double bound, TraversalWorkspace* ws,
                           SettleFn&& on_settle) {
  NodeScratch& scratch = ws->scratch;
  std::vector<DijkstraHeapEntry>* heap = &ws->heap;
  TraversalCancel& cancel = ws->cancel;
  scratch.NewEpoch();
  heap->clear();
  TraversalCounters& tc = LocalTraversalCounters();
  const uint32_t poll_interval = std::max<uint32_t>(1, cancel.check_interval);
  uint32_t settles_until_poll = poll_interval;
  // The scratch holds tentative distances during the run; a separate
  // settled mark is unnecessary because a popped entry matching the
  // scratch value is settled (standard lazy-deletion Dijkstra).
  for (const DijkstraSource& s : sources) {
    if (s.dist <= bound && s.dist < scratch.Get(s.node)) {
      scratch.Set(s.node, s.dist);
      internal::HeapPushEntry(heap, s.dist, s.node);
    }
  }
  while (!heap->empty()) {
    auto [d, n] = internal::HeapPopEntry(heap);
    if (d > scratch.Get(n)) continue;  // stale entry
    ++tc.settled_nodes;
    if (--settles_until_poll == 0) {
      settles_until_poll = poll_interval;
      if (cancel.ShouldCancel()) {
        cancel.triggered = true;
        return;
      }
    }
    if (!on_settle(n, d)) return;
    VisitNeighbors(graph, n, [&](NodeId m, double w) {
      double nd = d + w;
      if (nd <= bound && nd < scratch.Get(m)) {
        scratch.Set(m, nd);
        internal::HeapPushEntry(heap, nd, m);
      }
    });
  }
}

/// Computes exact shortest-path distances from `sources` to every
/// reachable node; distances land in `ws->scratch` (a fresh epoch is
/// started; unreached nodes read kInfDist) and the heap storage of `ws`
/// is reused instead of reallocated.
template <typename Graph>
void DijkstraDistances(const Graph& graph,
                       const std::vector<DijkstraSource>& sources,
                       TraversalWorkspace* ws) {
  DijkstraExpandBounded(graph, sources, kInfDist, ws,
                        [](NodeId, double) { return true; });
}

}  // namespace netclus

#endif  // NETCLUS_GRAPH_DIJKSTRA_H_
