#include "graph/network_distance.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/frozen_graph.h"

namespace netclus {

double DirectDistance(const PointPos& p, const PointPos& q) {
  if (p.u != q.u || p.v != q.v) return kInfDist;
  return std::fabs(p.offset - q.offset);
}

double DirectDistanceToNode(const PointPos& p, double edge_weight, NodeId n) {
  if (n == p.u) return p.offset;
  if (n == p.v) return edge_weight - p.offset;
  return kInfDist;
}

namespace {

// The implementations below are templated on the traversal graph: the
// live NetworkView (compatibility path, virtual dispatch per node) or a
// FrozenGraph CSR snapshot (inlined pointer walk). Point data (positions,
// edge points) always comes from the view — the snapshot carries
// adjacency and point-id ranges only. Both instantiations relax edges in
// the same order, so results are bit-identical.

template <typename Graph>
double PointNetworkDistanceImpl(const NetworkView& view, const Graph& graph,
                                PointId p, PointId q, NodeScratch* scratch,
                                std::vector<DijkstraHeapEntry>* heap,
                                TraversalCancel* cancel) {
  if (p == q) return 0.0;
  PointPos pp = view.PointPosition(p);
  PointPos qq = view.PointPosition(q);
  double wq = view.EdgeWeight(qq.u, qq.v);
  bool same_edge = pp.u == qq.u && pp.v == qq.v;
  double best = same_edge ? std::fabs(pp.offset - qq.offset) : kInfDist;

  double wp = view.EdgeWeight(pp.u, pp.v);
  std::vector<DijkstraSource> sources = {{pp.u, pp.offset},
                                         {pp.v, wp - pp.offset}};
  bool settled_u = false, settled_v = false;
  DijkstraExpandKernel(graph, sources, kInfDist, scratch, heap,
                       [&](NodeId n, double d) {
                         // All later settles have distance >= d, so once d
                         // reaches `best` no candidate can improve it.
                         if (d >= best) return false;
                         if (n == qq.u) {
                           best = std::min(best, d + qq.offset);
                           settled_u = true;
                         }
                         if (n == qq.v) {
                           best = std::min(best, d + wq - qq.offset);
                           settled_v = true;
                         }
                         return !(settled_u && settled_v);
                       },
                       cancel);
  return best;
}

// Second phase of RangeQuery, common to all overloads: inspect every
// edge incident to a settled node and emit the points within eps. `c`
// is the center point (its own edge also admits the direct distance),
// or null when the expansion was sourced at a node.
template <typename Graph>
void CollectRangePoints(const NetworkView& view, const Graph& graph,
                        const PointPos* c, double wc, double eps,
                        const NodeScratch& scratch,
                        const std::vector<std::pair<NodeId, double>>& settled,
                        std::vector<RangeResult>* out) {
  std::vector<EdgePoint> pts;
  auto process_edge = [&](NodeId a, NodeId b, double we) {
    view.GetEdgePoints(a, b, &pts);
    if (pts.empty()) return;
    NodeId u = std::min(a, b), v = std::max(a, b);
    double du = scratch.Get(u);  // kInfDist when not reached within eps
    double dv = scratch.Get(v);
    bool is_center_edge = c != nullptr && u == c->u && v == c->v;
    for (const EdgePoint& ep : pts) {
      double d = std::min(du + ep.offset, dv + (we - ep.offset));
      if (is_center_edge) d = std::min(d, std::fabs(ep.offset - c->offset));
      if (d <= eps) out->push_back(RangeResult{ep.id, d});
    }
  };

  std::unordered_set<uint64_t> seen_edges;
  if (c != nullptr) {
    seen_edges.insert(EdgeKeyOf(c->u, c->v));
    process_edge(c->u, c->v, wc);
  }
  for (const auto& [n, d] : settled) {
    (void)d;
    VisitNeighbors(graph, n, [&](NodeId m, double we) {
      if (seen_edges.insert(EdgeKeyOf(n, m)).second) {
        process_edge(n, m, we);
      }
    });
  }
}

template <typename Graph>
void RangeQueryImpl(const NetworkView& view, const Graph& graph,
                    PointId center, double eps, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out) {
  out->clear();
  PointPos c = view.PointPosition(center);
  double wc = view.EdgeWeight(c.u, c.v);

  ws->settled.clear();
  ws->cancel.triggered = false;
  DijkstraExpandBounded(graph, {{c.u, c.offset}, {c.v, wc - c.offset}}, eps,
                        ws, [&](NodeId n, double d) {
                          ws->settled.emplace_back(n, d);
                          return true;
                        });
  // A cancelled expansion settled only part of the region: the collection
  // phase would emit a silently incomplete (and wrong-distance) set.
  if (ws->cancel.triggered) return;
  CollectRangePoints(view, graph, &c, wc, eps, ws->scratch, ws->settled, out);
}

template <typename Graph>
void RangeQueryAccelImpl(const NetworkView& view, const Graph& graph,
                         PointId center, double eps, TraversalWorkspace* ws,
                         const DistanceAccelerator* accel,
                         std::vector<RangeResult>* out) {
  out->clear();
  PointPos c = view.PointPosition(center);
  double wc = view.EdgeWeight(c.u, c.v);

  // Landmark prefilter: an expansion radius covering the farthest
  // in-range candidate is as good as eps (the proof needs every node on
  // an in-range point's shortest path to stay under the bound, and
  // those prefixes are <= the point's own distance).
  double bound = accel->RangeExpansionBound(center, eps);
  // Slack mirrors Tolerance(): a floor equal to the remaining budget up
  // to fp rounding must not prune.
  const double prune_cut = eps * (1.0 + 1e-9);
  ws->settled.clear();
  ws->cancel.triggered = false;
  DijkstraExpandBounded(
      graph, {{c.u, c.offset}, {c.v, wc - c.offset}}, bound, ws,
      [&](NodeId n, double d) {
        ws->settled.emplace_back(n, d);
        // Every point != center whose shortest path runs through n is at
        // least d + floor away; past eps, n's edges still get inspected
        // (it stays settled) but nothing needs to be reached through it.
        if (d + accel->NearestObjectFloor(n, center) > prune_cut) {
          return SettleAction::kSkipNeighbors;
        }
        return SettleAction::kContinue;
      });
  if (ws->cancel.triggered) return;
  CollectRangePoints(view, graph, &c, wc, eps, ws->scratch, ws->settled, out);
  // Pruning changes the settle order, so canonicalize: emitted sets are
  // provably identical to the unaccelerated query, order is not.
  std::sort(out->begin(), out->end(),
            [](const RangeResult& a, const RangeResult& b) {
              return a.id < b.id;
            });
}

template <typename Graph>
void KNearestNeighborsImpl(const NetworkView& view, const Graph& graph,
                           PointId center, uint32_t k, NodeScratch* scratch,
                           TraversalCancel* cancel,
                           std::vector<RangeResult>* out) {
  out->clear();
  if (cancel != nullptr) cancel->triggered = false;
  if (k == 0) return;
  PointPos c = view.PointPosition(center);
  double wc = view.EdgeWeight(c.u, c.v);

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

  std::vector<EdgePoint> pts;
  // Offers along an edge from a settled endpoint: every offered value is
  // a genuine path length, i.e. an upper bound on the point's distance.
  auto offer_edge = [&](NodeId from, NodeId to, double we, double dist) {
    view.GetEdgePoints(from, to, &pts);
    for (const EdgePoint& ep : pts) {
      double dl = from < to ? ep.offset : we - ep.offset;
      offer(ep.id, dist + dl);
    }
  };
  // The center's own edge is reachable without any node: offer the
  // direct distances (via-node paths for these points arrive when the
  // endpoints settle below).
  view.GetEdgePoints(c.u, c.v, &pts);
  for (const EdgePoint& ep : pts) {
    offer(ep.id, std::fabs(ep.offset - c.offset));
  }

  // INE-style expansion: a point whose best offer has not arrived yet
  // lies behind an unsettled node, so once the settle distance reaches
  // the current k-th candidate no candidate can improve.
  scratch->NewEpoch();
  struct Entry {
    double dist;
    NodeId node;
    bool operator>(const Entry& other) const { return dist > other.dist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  scratch->Set(c.u, c.offset);
  heap.push(Entry{c.offset, c.u});
  if (scratch->Get(c.v) > wc - c.offset) {
    scratch->Set(c.v, wc - c.offset);
    heap.push(Entry{wc - c.offset, c.v});
  }
  // The INE loop is not the shared kernel, so it polls the cancellation
  // token itself, at the same cadence (every check_interval settles).
  const uint32_t poll_interval =
      cancel != nullptr ? std::max<uint32_t>(1, cancel->check_interval) : 0;
  uint32_t settles_until_poll = poll_interval;
  while (!heap.empty()) {
    auto [d, n] = heap.top();
    heap.pop();
    if (d > scratch->Get(n)) continue;  // stale
    if (d >= bound()) break;
    if (cancel != nullptr && --settles_until_poll == 0) {
      settles_until_poll = poll_interval;
      if (cancel->ShouldCancel()) {
        cancel->triggered = true;
        return;  // `out` stays empty — partial candidates are garbage
      }
    }
    VisitNeighbors(graph, n, [&](NodeId m, double we) {
      // Offer via this (settled) side; the other side offers again when
      // it settles, and per-point minimization keeps the best.
      offer_edge(n, m, we, d);
      double nd = d + we;
      if (nd < scratch->Get(m)) {
        scratch->Set(m, nd);
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

}  // namespace

double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            NodeScratch* scratch) {
  std::vector<DijkstraHeapEntry> heap;
  return PointNetworkDistanceImpl(view, view, p, q, scratch, &heap, nullptr);
}

double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, NodeScratch* scratch) {
  std::vector<DijkstraHeapEntry> heap;
  return PointNetworkDistanceImpl(view, frozen, p, q, scratch, &heap, nullptr);
}

void RangeQuery(const NetworkView& view, PointId center, double eps,
                NodeScratch* scratch, std::vector<RangeResult>* out) {
  out->clear();
  PointPos c = view.PointPosition(center);
  double wc = view.EdgeWeight(c.u, c.v);

  std::vector<std::pair<NodeId, double>> settled;
  DijkstraExpandBounded(view, {{c.u, c.offset}, {c.v, wc - c.offset}}, eps,
                        scratch, [&](NodeId n, double d) {
                          settled.emplace_back(n, d);
                          return true;
                        });
  CollectRangePoints(view, view, &c, wc, eps, *scratch, settled, out);
}

void NodeRangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                    NodeId source, double radius, TraversalWorkspace* ws,
                    std::vector<RangeResult>* out) {
  out->clear();
  ws->settled.clear();
  ws->cancel.triggered = false;
  DijkstraExpandBounded(frozen, {{source, 0.0}}, radius, ws,
                        [&](NodeId n, double d) {
                          ws->settled.emplace_back(n, d);
                          return true;
                        });
  if (ws->cancel.triggered) return;
  CollectRangePoints(view, frozen, nullptr, 0.0, radius, ws->scratch,
                     ws->settled, out);
}

void RangeQuery(const NetworkView& view, PointId center, double eps,
                TraversalWorkspace* ws, std::vector<RangeResult>* out) {
  RangeQueryImpl(view, view, center, eps, ws, out);
}

void RangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                PointId center, double eps, TraversalWorkspace* ws,
                std::vector<RangeResult>* out) {
  RangeQueryImpl(view, frozen, center, eps, ws, out);
}

double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            NodeScratch* scratch,
                            const DistanceAccelerator* accel,
                            double threshold) {
  if (accel == nullptr) return PointNetworkDistance(view, p, q, scratch);
  if (p == q) return 0.0;
  double cached;
  if (accel->LookupDistance(p, q, &cached)) return cached;
  double lb = accel->LowerBound(p, q);
  if (lb == kInfDist) return kInfDist;  // proven disconnected — exact
  if (lb > threshold) return lb;        // caller only branches on the cut
  double exact = PointNetworkDistance(view, p, q, scratch);
  accel->StoreDistance(p, q, exact);
  return exact;
}

double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, NodeScratch* scratch,
                            const DistanceAccelerator* accel,
                            double threshold) {
  if (accel == nullptr) {
    return PointNetworkDistance(view, frozen, p, q, scratch);
  }
  if (p == q) return 0.0;
  double cached;
  if (accel->LookupDistance(p, q, &cached)) return cached;
  double lb = accel->LowerBound(p, q);
  if (lb == kInfDist) return kInfDist;  // proven disconnected — exact
  if (lb > threshold) return lb;        // caller only branches on the cut
  double exact = PointNetworkDistance(view, frozen, p, q, scratch);
  accel->StoreDistance(p, q, exact);
  return exact;
}

void RangeQuery(const NetworkView& view, PointId center, double eps,
                TraversalWorkspace* ws, const DistanceAccelerator* accel,
                std::vector<RangeResult>* out) {
  if (accel == nullptr) {
    RangeQuery(view, center, eps, ws, out);
    return;
  }
  RangeQueryAccelImpl(view, view, center, eps, ws, accel, out);
}

void RangeQuery(const NetworkView& view, const FrozenGraph& frozen,
                PointId center, double eps, TraversalWorkspace* ws,
                const DistanceAccelerator* accel,
                std::vector<RangeResult>* out) {
  if (accel == nullptr) {
    RangeQuery(view, frozen, center, eps, ws, out);
    return;
  }
  RangeQueryAccelImpl(view, frozen, center, eps, ws, accel, out);
}

double PointNetworkDistance(const NetworkView& view, PointId p, PointId q,
                            TraversalWorkspace* ws,
                            const DistanceAccelerator* accel,
                            double threshold) {
  ws->cancel.triggered = false;
  if (accel == nullptr) {
    return PointNetworkDistanceImpl(view, view, p, q, &ws->scratch, &ws->heap,
                                    &ws->cancel);
  }
  if (p == q) return 0.0;
  double cached;
  if (accel->LookupDistance(p, q, &cached)) return cached;
  double lb = accel->LowerBound(p, q);
  if (lb == kInfDist) return kInfDist;  // proven disconnected — exact
  if (lb > threshold) return lb;        // caller only branches on the cut
  double exact = PointNetworkDistanceImpl(view, view, p, q, &ws->scratch,
                                          &ws->heap, &ws->cancel);
  // A cancelled expansion yields a garbage partial value — never let it
  // poison the cache.
  if (!ws->cancel.triggered) accel->StoreDistance(p, q, exact);
  return exact;
}

double PointNetworkDistance(const NetworkView& view, const FrozenGraph& frozen,
                            PointId p, PointId q, TraversalWorkspace* ws,
                            const DistanceAccelerator* accel,
                            double threshold) {
  ws->cancel.triggered = false;
  if (accel == nullptr) {
    return PointNetworkDistanceImpl(view, frozen, p, q, &ws->scratch,
                                    &ws->heap, &ws->cancel);
  }
  if (p == q) return 0.0;
  double cached;
  if (accel->LookupDistance(p, q, &cached)) return cached;
  double lb = accel->LowerBound(p, q);
  if (lb == kInfDist) return kInfDist;  // proven disconnected — exact
  if (lb > threshold) return lb;        // caller only branches on the cut
  double exact = PointNetworkDistanceImpl(view, frozen, p, q, &ws->scratch,
                                          &ws->heap, &ws->cancel);
  if (!ws->cancel.triggered) accel->StoreDistance(p, q, exact);
  return exact;
}

void KNearestNeighbors(const NetworkView& view, PointId center, uint32_t k,
                       NodeScratch* scratch, std::vector<RangeResult>* out) {
  KNearestNeighborsImpl(view, view, center, k, scratch, nullptr, out);
}

void KNearestNeighbors(const NetworkView& view, const FrozenGraph& frozen,
                       PointId center, uint32_t k, NodeScratch* scratch,
                       std::vector<RangeResult>* out) {
  KNearestNeighborsImpl(view, frozen, center, k, scratch, nullptr, out);
}

void KNearestNeighbors(const NetworkView& view, PointId center, uint32_t k,
                       TraversalWorkspace* ws, std::vector<RangeResult>* out) {
  KNearestNeighborsImpl(view, view, center, k, &ws->scratch, &ws->cancel, out);
}

void KNearestNeighbors(const NetworkView& view, const FrozenGraph& frozen,
                       PointId center, uint32_t k, TraversalWorkspace* ws,
                       std::vector<RangeResult>* out) {
  KNearestNeighborsImpl(view, frozen, center, k, &ws->scratch, &ws->cancel,
                        out);
}

}  // namespace netclus
