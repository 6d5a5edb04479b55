#include "graph/network_distance.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <unordered_map>

#include "graph/edge_points.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

// The implementations below are templated on the traversal graph: the
// live NetworkView (virtual dispatch per node) or a FrozenGraph CSR
// snapshot (inlined pointer walk). Point positions come from the view;
// edge points come from the snapshot's PointSet or through the view
// (graph/edge_points.h). Both instantiations relax edges in the same
// order, so results are bit-identical.

// Emits the points of one edge that lie within eps, in ascending id
// order, each with the distance
//   min(du + off, dv + (we - off))    [, |off - c.off| on c's own edge]
// where du / dv are the settled distances of the edge's smaller / larger
// endpoint (kInfDist when unreached). Offsets ascend along the edge, and
// floating-point addition and subtraction are monotone, so each term's
// "<= eps" set is contiguous: du + off a prefix, dv + (we - off) a
// suffix, |off - c.off| a window. Binary search finds the three runs and
// only their union is visited — the same set, in the same order, with
// the same distances as testing every point on the edge.
void EmitEdgeRange(const EdgePointSpan& pts, double du, double dv, double we,
                   const PointPos* c, double eps,
                   std::vector<RangeResult>* out) {
  const double* off = pts.offsets;
  const uint32_t n = pts.count;
  auto index_of = [off](const double* it) {
    return static_cast<uint32_t>(it - off);
  };
  struct Run {
    uint32_t from, to;
  };
  Run runs[3] = {
      {0, index_of(std::partition_point(
              off, off + n, [&](double o) { return du + o <= eps; }))},
      {0, 0},
      {index_of(std::partition_point(
           off, off + n, [&](double o) { return !(dv + (we - o) <= eps); })),
       n},
  };
  if (c != nullptr) {
    runs[1] = {index_of(std::partition_point(
                   off, off + n,
                   [&](double o) { return o - c->offset < -eps; })),
               index_of(std::partition_point(
                   off, off + n,
                   [&](double o) { return o - c->offset <= eps; }))};
    if (runs[2].from < runs[1].from) std::swap(runs[1], runs[2]);
  }
  // Runs ordered by start; `next` skips what an earlier run covered.
  uint32_t next = 0;
  for (const Run& r : runs) {
    for (uint32_t i = std::max(r.from, next); i < r.to; ++i) {
      double d = std::min(du + off[i], dv + (we - off[i]));
      if (c != nullptr) d = std::min(d, std::fabs(off[i] - c->offset));
      out->push_back(RangeResult{pts.first + i, d});
    }
    next = std::max(next, r.to);
  }
}

// Second phase of the point- and node-sourced range queries: inspect
// every edge incident to a node of the settle log `ws->settled` and emit
// the points within eps. `c` is the center point (its own edge also admits
// the direct distance), or null when the expansion was sourced at a
// node. Each edge is inspected once: the center edge first, then every
// other edge from whichever endpoint settled first — the endpoint
// reached second finds its partner already stamped.
template <typename Graph>
void CollectRangePoints(const Graph& graph, const PointPos* c, double wc,
                        double eps, TraversalWorkspace* ws,
                        std::vector<RangeResult>* out) {
  EdgePointReader reader(graph);
  const NodeScratch& scratch = ws->scratch;
  auto process_edge = [&](NodeId a, NodeId b, double we) {
    EdgePointSpan pts = reader.Get(a, b);
    if (pts.empty()) return;
    NodeId u = std::min(a, b), v = std::max(a, b);
    bool is_center_edge = c != nullptr && u == c->u && v == c->v;
    EmitEdgeRange(pts, scratch.Get(u), scratch.Get(v), we,
                  is_center_edge ? c : nullptr, eps, out);
  };

  if (ws->stamp.size() < scratch.size()) ws->stamp.resize(scratch.size(), 0);
  const uint64_t epoch = ++ws->stamp_epoch;
  uint64_t* stamp = ws->stamp.data();
  if (c != nullptr) process_edge(c->u, c->v, wc);
  for (const auto& [n, d] : ws->settled) {
    (void)d;
    stamp[n] = epoch;
    VisitNeighbors(graph, n, [&](NodeId m, double we) {
      if (stamp[m] == epoch) return;  // inspected when m settled
      if (c != nullptr && EdgeKeyOf(n, m) == EdgeKeyOf(c->u, c->v)) return;
      process_edge(n, m, we);
    });
  }
}

}  // namespace

template <TraversalGraph Graph>
double PointNetworkDistance(const NetworkView& view, const Graph& graph,
                            PointId p, PointId q, TraversalWorkspace* ws) {
  TraversalCancel& cancel = ws->cancel;
  cancel.triggered = false;
  if (p == q) return 0.0;
  // Search forward from the smaller id, so d(p, q) and d(q, p) are the
  // same bits: the served distance cache keys on the unordered pair, and
  // a hit must equal what a replay in either direction recomputes.
  if (q < p) std::swap(p, q);
  const PointPos pp = view.PointPosition(p);
  const PointPos qq = view.PointPosition(q);
  const double wp = graph.EdgeWeight(pp.u, pp.v);
  const double wq = graph.EdgeWeight(qq.u, qq.v);
  double best = pp.u == qq.u && pp.v == qq.v
                    ? std::fabs(pp.offset - qq.offset)
                    : kInfDist;

  // Bidirectional Dijkstra: a forward frontier from p's edge endpoints
  // and a backward one from q's, each seeded with its point's offsets.
  // `best` is the shortest p-q path seen so far: whenever a node's label
  // improves on one side and the other side has labelled it too, the
  // two labels join into a path. Every unsettled label on a side is at
  // least its heap top, so once the tops sum to `best` no path through
  // an unsettled node can be shorter; and once a side's heap empties,
  // every node it reaches is settled and joined.
  if (ws->backward.size() < ws->scratch.size()) {
    ws->backward = NodeScratch(ws->scratch.size());
  }
  struct Frontier {
    NodeScratch* labels;
    std::vector<DijkstraHeapEntry>* heap;
  };
  Frontier fwd{&ws->scratch, &ws->heap};
  Frontier bwd{&ws->backward, &ws->backward_heap};
  for (Frontier* f : {&fwd, &bwd}) {
    f->labels->NewEpoch();
    f->heap->clear();
  }
  TraversalCounters& tc = LocalTraversalCounters();
  auto label = [&](Frontier& self, const NodeScratch& other, NodeId n,
                   double d) {
    if (d < self.labels->Get(n)) {
      self.labels->Set(n, d);
      internal::HeapPushEntry(self.heap, d, n, tc);
      best = std::min(best, d + other.Get(n));
    }
  };
  // The backward seeds go second, so a node seeded on both sides is
  // joined once, there.
  label(fwd, *bwd.labels, pp.u, pp.offset);
  label(fwd, *bwd.labels, pp.v, wp - pp.offset);
  label(bwd, *fwd.labels, qq.u, qq.offset);
  label(bwd, *fwd.labels, qq.v, wq - qq.offset);

  // Both sides share one settle count for the cancellation poll.
  const uint32_t poll_interval = std::max<uint32_t>(1, cancel.check_interval);
  uint32_t settles_until_poll = poll_interval;
  while (!fwd.heap->empty() && !bwd.heap->empty() &&
         fwd.heap->front().dist + bwd.heap->front().dist < best) {
    // The side with the smaller heap advances; ties go forward.
    const bool forward = fwd.heap->size() <= bwd.heap->size();
    Frontier& self = forward ? fwd : bwd;
    const NodeScratch& other = forward ? *bwd.labels : *fwd.labels;
    auto [d, n] = internal::HeapPopEntry(self.heap, tc);
    if (d > self.labels->Get(n)) continue;  // stale entry
    ++tc.settled_nodes;
    if (--settles_until_poll == 0) {
      settles_until_poll = poll_interval;
      if (cancel.ShouldCancel()) {
        cancel.triggered = true;
        return best;  // garbage: the caller checks `triggered`
      }
    }
    VisitNeighbors(graph, n,
                   [&](NodeId m, double w) { label(self, other, m, d + w); });
  }
  return best;
}

template <TraversalGraph Graph>
void RangeQuery(const NetworkView& view, const Graph& graph, PointId center,
                double eps, TraversalWorkspace* ws,
                std::vector<RangeResult>* out) {
  out->clear();
  PointPos c = view.PointPosition(center);
  double wc = graph.EdgeWeight(c.u, c.v);

  ws->settled.clear();
  ws->cancel.triggered = false;
  ws->sources.assign({{c.u, c.offset}, {c.v, wc - c.offset}});
  DijkstraExpandBounded(graph, ws->sources, eps, ws, [&](NodeId n, double d) {
    ws->settled.emplace_back(n, d);
    return true;
  });
  // A cancelled expansion settled only part of the region: the collection
  // phase would emit a silently incomplete (and wrong-distance) set.
  if (ws->cancel.triggered) return;
  CollectRangePoints(graph, &c, wc, eps, ws, out);
}

template <TraversalGraph Graph>
void KNearestNeighbors(const NetworkView& view, const Graph& graph,
                       PointId center, uint32_t k, TraversalWorkspace* ws,
                       std::vector<RangeResult>* out) {
  out->clear();
  TraversalCancel& cancel = ws->cancel;
  cancel.triggered = false;
  if (k == 0) return;
  PointPos c = view.PointPosition(center);
  double wc = graph.EdgeWeight(c.u, c.v);

  // Candidate bookkeeping: per-point best distance found so far (offers
  // via a settled endpoint are upper bounds that only improve), plus a
  // multiset of those distances to read the current k-th best.
  std::unordered_map<PointId, double> cand;
  std::multiset<double> dists;
  auto offer = [&](PointId id, double d) {
    if (id == center) return;
    auto [it, inserted] = cand.emplace(id, d);
    if (inserted) {
      dists.insert(d);
    } else if (d < it->second) {
      dists.erase(dists.find(it->second));
      it->second = d;
      dists.insert(d);
    }
  };
  auto bound = [&]() {
    if (dists.size() < k) return kInfDist;
    return *std::next(dists.begin(), k - 1);
  };

  EdgePointReader reader(graph);
  // Offers along an edge from a settled endpoint: every offered value is
  // a genuine path length, i.e. an upper bound on the point's distance.
  auto offer_edge = [&](NodeId from, NodeId to, double we, double dist) {
    EdgePointSpan pts = reader.Get(from, to);
    for (uint32_t i = 0; i < pts.count; ++i) {
      double dl = from < to ? pts.offsets[i] : we - pts.offsets[i];
      offer(pts.first + i, dist + dl);
    }
  };
  // The center's own edge is reachable without any node: offer the
  // direct distances (via-node paths for these points arrive when the
  // endpoints settle below).
  EdgePointSpan own = reader.Get(c.u, c.v);
  for (uint32_t i = 0; i < own.count; ++i) {
    offer(own.first + i, std::fabs(own.offsets[i] - c.offset));
  }

  // INE-style expansion: a point whose best offer has not arrived yet
  // lies behind an unsettled node, so once the settle distance reaches
  // the current k-th candidate no candidate can improve.
  NodeScratch& scratch = ws->scratch;
  scratch.NewEpoch();
  struct Entry {
    double dist;
    NodeId node;
    bool operator>(const Entry& other) const { return dist > other.dist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  scratch.Set(c.u, c.offset);
  heap.push(Entry{c.offset, c.u});
  if (scratch.Get(c.v) > wc - c.offset) {
    scratch.Set(c.v, wc - c.offset);
    heap.push(Entry{wc - c.offset, c.v});
  }
  // The INE loop is not the shared kernel, so it polls the cancellation
  // token itself, at the same cadence (every check_interval settles).
  const uint32_t poll_interval = std::max<uint32_t>(1, cancel.check_interval);
  uint32_t settles_until_poll = poll_interval;
  while (!heap.empty()) {
    auto [d, n] = heap.top();
    heap.pop();
    if (d > scratch.Get(n)) continue;  // stale
    if (d >= bound()) break;
    if (--settles_until_poll == 0) {
      settles_until_poll = poll_interval;
      if (cancel.ShouldCancel()) {
        cancel.triggered = true;
        return;  // `out` stays empty — partial candidates are garbage
      }
    }
    VisitNeighbors(graph, n, [&](NodeId m, double we) {
      // Offer via this (settled) side; the other side offers again when
      // it settles, and per-point minimization keeps the best.
      offer_edge(n, m, we, d);
      double nd = d + we;
      if (nd < scratch.Get(m)) {
        scratch.Set(m, nd);
        heap.push(Entry{nd, m});
      }
    });
  }

  std::vector<RangeResult> results;
  results.reserve(cand.size());
  for (const auto& [id, d] : cand) results.push_back(RangeResult{id, d});
  std::sort(results.begin(), results.end(),
            [](const RangeResult& a, const RangeResult& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
            });
  if (results.size() > k) results.resize(k);
  *out = std::move(results);
}

void NodeRangeQuery(const NetworkView& /*view*/, const FrozenGraph& frozen,
                    NodeId source, double radius, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out) {
  out->clear();
  ws->settled.clear();
  ws->cancel.triggered = false;
  ws->sources.assign({{source, 0.0}});
  DijkstraExpandBounded(frozen, ws->sources, radius, ws,
                        [&](NodeId n, double d) {
                          ws->settled.emplace_back(n, d);
                          return true;
                        });
  if (ws->cancel.triggered) return;
  CollectRangePoints(frozen, nullptr, 0.0, radius, ws, out);
}

template double PointNetworkDistance(const NetworkView&, const NetworkView&,
                                     PointId, PointId, TraversalWorkspace*);
template double PointNetworkDistance(const NetworkView&, const FrozenGraph&,
                                     PointId, PointId, TraversalWorkspace*);
template void RangeQuery(const NetworkView&, const NetworkView&, PointId,
                         double, TraversalWorkspace*,
                         std::vector<RangeResult>*);
template void RangeQuery(const NetworkView&, const FrozenGraph&, PointId,
                         double, TraversalWorkspace*,
                         std::vector<RangeResult>*);
template void KNearestNeighbors(const NetworkView&, const NetworkView&,
                                PointId, uint32_t, TraversalWorkspace*,
                                std::vector<RangeResult>*);
template void KNearestNeighbors(const NetworkView&, const FrozenGraph&,
                                PointId, uint32_t, TraversalWorkspace*,
                                std::vector<RangeResult>*);

}  // namespace netclus
