#include "graph/network_distance.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "graph/edge_points.h"
#include "graph/frozen_graph.h"
#include "graph/landmarks.h"

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
// the same distances as testing every point on the edge. The emitted
// points are the ones whose distance is computed, so they alone count as
// examined: one bump for the edge.
void EmitEdgeRange(const EdgePointSpan& pts, double du, double dv, double we,
                   const PointPos* c, double eps, TraversalCounters* tc,
                   std::vector<RangeResult>* out) {
  const size_t emitted_before = out->size();
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
  tc->points_examined += out->size() - emitted_before;
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
  TraversalCounters& tc = LocalTraversalCounters();
  auto process_edge = [&](NodeId a, NodeId b, double we) {
    EdgePointSpan pts = reader.Get(a, b);
    if (pts.empty()) return;
    NodeId u = std::min(a, b), v = std::max(a, b);
    bool is_center_edge = c != nullptr && u == c->u && v == c->v;
    EmitEdgeRange(pts, scratch.Get(u), scratch.Get(v), we,
                  is_center_edge ? c : nullptr, eps, &tc, out);
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

// The landmark tables a search over `graph` prunes with: a snapshot's,
// or none over the view itself.
const LandmarkTables* LandmarksOf(const NetworkView& /*view*/) {
  return nullptr;
}
const LandmarkTables* LandmarksOf(const FrozenGraph& graph) {
  return graph.landmarks();
}

}  // namespace

template <TraversalGraph Graph>
double PointNetworkDistance(const NetworkView& view, const Graph& graph,
                            PointId p, PointId q, TraversalWorkspace* ws) {
  TraversalCancel& cancel = ws->cancel;
  cancel.triggered = false;
  if (p == q) return 0.0;
  // Search forward from the smaller id, so the settle count is a
  // function of the unordered pair, like the answer.
  if (q < p) std::swap(p, q);
  const PointPos pp = view.PointPosition(p);
  const PointPos qq = view.PointPosition(q);
  // Every length below is exact (graph/exact_length.h): a seed is an
  // offset or the edge weight minus it, a step adds an edge weight, all
  // converted once to integer units.
  const ExactLength wp = ToExact(graph.EdgeWeight(pp.u, pp.v));
  const ExactLength wq = ToExact(graph.EdgeWeight(qq.u, qq.v));
  const ExactLength op = ToExact(pp.offset);
  const ExactLength oq = ToExact(qq.offset);
  // The shortest p-q length joined so far; kUnreachedLength for none.
  ExactLength best = kUnreachedLength;
  if (pp.u == qq.u && pp.v == qq.v) best = op < oq ? oq - op : op - oq;

  // Landmark potentials (graph/landmarks.h). π_s(n) and π_t(n) bound
  // d(p, n) and d(n, q) from below, max over the landmarks of
  // |d(L, n) − d(L, x)|; a landmark that misses either side bounds
  // nothing. d(L, x) for a point x is the nearer of its edge's ends. The
  // forward key is 2g + Δ(n) and the backward key 2g − Δ(n), with
  // Δ = π_t − π_s: the averaged potentials, doubled so they stay
  // integers. Exact potentials are consistent, so a node's first pop is
  // its final label, and a path through n has doubled length
  // key_f(n) + key_b(n). Without tables Δ is 0: plain bidirectional
  // Dijkstra.
  const LandmarkTables* tables = LandmarksOf(graph);
  constexpr uint32_t kCount = LandmarkTables::kCount;
  ExactLength from_p[kCount];
  ExactLength to_q[kCount];
  if (tables != nullptr) {
    auto point_row = [&](const PointPos& x, ExactLength w, ExactLength off,
                         ExactLength* out) {
      const ExactLength* ru = tables->row(x.u);
      const ExactLength* rv = tables->row(x.v);
      for (uint32_t i = 0; i < kCount; ++i) {
        out[i] = std::min(std::min(ru[i] + off, rv[i] + (w - off)),
                          kUnreachedLength);
      }
    };
    point_row(pp, wp, op, from_p);
    point_row(qq, wq, oq, to_q);
    // The lower bound is infinite when a landmark reaches one point and
    // not the other: they lie in different components.
    for (uint32_t i = 0; i < kCount; ++i) {
      if ((from_p[i] == kUnreachedLength) != (to_q[i] == kUnreachedLength)) {
        return kInfDist;
      }
    }
  }
  auto delta = [&](NodeId n) -> ExactLength {
    if (tables == nullptr) return 0;
    const ExactLength* row = tables->row(n);
    ExactLength pi_s = 0;
    ExactLength pi_t = 0;
    for (uint32_t i = 0; i < kCount; ++i) {
      if (row[i] == kUnreachedLength) continue;
      if (from_p[i] != kUnreachedLength) {
        const ExactLength d = row[i] - from_p[i];
        pi_s = std::max(pi_s, d < 0 ? -d : d);
      }
      if (to_q[i] != kUnreachedLength) {
        const ExactLength d = row[i] - to_q[i];
        pi_t = std::max(pi_t, d < 0 ? -d : d);
      }
    }
    return pi_t - pi_s;
  };

  // Bidirectional search: a forward frontier from p's edge endpoints and
  // a backward one from q's, each seeded with its point's offsets.
  // Whenever a node's label improves on one side and the other side has
  // labelled it too, the two labels join into a path. Every unsettled
  // label on a side has a key of at least its heap top, so once the
  // tops sum to 2 * best no path through an unsettled node can be
  // shorter; and once a side's heap empties, every node it reaches is
  // settled and joined.
  ExactFrontier& fwd = ws->forward;
  ExactFrontier& bwd = ws->backward;
  for (ExactFrontier* f : {&fwd, &bwd}) {
    f->Reserve(ws->scratch.size());
    f->NewEpoch();
  }
  TraversalCounters& tc = LocalTraversalCounters();
  auto label = [&](ExactFrontier& self, const ExactFrontier& other,
                   bool forward, NodeId n, ExactLength g) {
    if (g < self.Get(n)) {
      self.Set(n, g);
      const ExactLength d = delta(n);
      self.heap.push_back(ExactFrontier::Entry{2 * g + (forward ? d : -d), n});
      std::push_heap(self.heap.begin(), self.heap.end(), std::greater<>());
      ++tc.heap_pushes;
      best = std::min(best, g + other.Get(n));
    }
  };
  // The backward seeds go second, so a node seeded on both sides is
  // joined once, there.
  label(fwd, bwd, true, pp.u, op);
  label(fwd, bwd, true, pp.v, wp - op);
  label(bwd, fwd, false, qq.u, oq);
  label(bwd, fwd, false, qq.v, wq - oq);

  // Both sides share one settle count for the cancellation poll.
  const uint32_t poll_interval = std::max<uint32_t>(1, cancel.check_interval);
  uint32_t settles_until_poll = poll_interval;
  while (!fwd.heap.empty() && !bwd.heap.empty() &&
         (best == kUnreachedLength ||
          fwd.heap.front().key + bwd.heap.front().key < 2 * best)) {
    // The side with the smaller heap advances; ties go forward.
    const bool forward = fwd.heap.size() <= bwd.heap.size();
    ExactFrontier& self = forward ? fwd : bwd;
    const ExactFrontier& other = forward ? bwd : fwd;
    std::pop_heap(self.heap.begin(), self.heap.end(), std::greater<>());
    const NodeId n = self.heap.back().node;
    self.heap.pop_back();
    ++tc.heap_pops;
    // A node's first pop carries its final label; any later entry for it
    // is stale.
    if (self.Settled(n)) continue;
    self.Settle(n);
    ++tc.settled_nodes;
    if (--settles_until_poll == 0) {
      settles_until_poll = poll_interval;
      if (cancel.ShouldCancel()) {
        cancel.triggered = true;
        return kInfDist;  // garbage: the caller checks `triggered`
      }
    }
    const ExactLength g = self.Get(n);
    VisitNeighbors(graph, n, [&](NodeId m, double w) {
      label(self, other, forward, m, g + ToExact(w));
    });
  }
  return best == kUnreachedLength ? kInfDist : FromExact(best);
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
  ws->cancel.triggered = false;
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

  // INE-style expansion on the shared kernel: a point whose best offer
  // has not arrived yet lies behind an unsettled node, so once the settle
  // distance reaches the current k-th candidate no candidate can improve.
  ws->sources.assign({{c.u, c.offset}, {c.v, wc - c.offset}});
  DijkstraExpandBounded(graph, ws->sources, kInfDist, ws,
                        [&](NodeId n, double d) {
                          if (d >= bound()) return false;
                          // Offer via this (settled) side; the other side
                          // offers again when it settles, and per-point
                          // minimization keeps the best.
                          VisitNeighbors(graph, n, [&](NodeId m, double we) {
                            offer_edge(n, m, we, d);
                          });
                          return true;
                        });
  // Partial candidates of a cancelled expansion are garbage: `out` stays
  // empty.
  if (ws->cancel.triggered) return;

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
