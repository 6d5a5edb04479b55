#include "core/validate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/union_find.h"
#include "graph/frozen_graph.h"
#include "graph/network_distance.h"

namespace netclus {

namespace {

Status Violation(const char* algorithm, std::string msg) {
  return Status::Internal(std::string("validation: ") + algorithm + ": " +
                          std::move(msg));
}

// Relative slack for comparing distances derived through different
// summation orders (the validators' independent Dijkstra vs. the
// algorithm's traversal).
double Tolerance(double scale) {
  return 1e-9 * std::max(1.0, std::abs(scale));
}

// Stride that visits ~limits.sample_points points deterministically.
PointId SampleStride(PointId n, const ValidateLimits& limits) {
  PointId target = std::max<PointId>(1, limits.sample_points);
  return std::max<PointId>(1, n / target);
}

// Distinct cluster ids must be exactly {0, ..., num_clusters-1}; holds
// for every algorithm that runs NormalizeClustering (ε-Link, DBSCAN,
// dendrogram cuts). k-medoids may leave clusters empty, so this is not
// part of ValidateClusteringShape.
Status CheckContiguousIds(const char* algorithm, const Clustering& c) {
  std::unordered_set<int> seen;
  for (int id : c.assignment) {
    if (id != kNoise) seen.insert(id);
  }
  if (static_cast<int>(seen.size()) != c.num_clusters) {
    return Violation(algorithm,
                     "num_clusters = " + std::to_string(c.num_clusters) +
                         " but " + std::to_string(seen.size()) +
                         " distinct cluster ids are assigned");
  }
  return Status::OK();
}

}  // namespace

Status ValidateClusteringShape(const NetworkView& view, const Clustering& c) {
  if (c.assignment.size() != view.num_points()) {
    return Violation("shape",
                     "assignment has " + std::to_string(c.assignment.size()) +
                         " entries for " + std::to_string(view.num_points()) +
                         " points");
  }
  if (c.num_clusters < 0) {
    return Violation("shape",
                     "negative num_clusters " + std::to_string(c.num_clusters));
  }
  for (PointId p = 0; p < c.assignment.size(); ++p) {
    int id = c.assignment[p];
    if (id != kNoise && (id < 0 || id >= c.num_clusters)) {
      return Violation("shape", "point " + std::to_string(p) +
                                    " carries cluster id " +
                                    std::to_string(id) + " outside [0, " +
                                    std::to_string(c.num_clusters) + ")");
    }
  }
  return Status::OK();
}

Status ValidateKMedoids(const NetworkView& view, const Clustering& c,
                        const std::vector<PointId>& medoids, double cost,
                        const ValidateLimits& limits) {
  NETCLUS_RETURN_IF_ERROR(ValidateClusteringShape(view, c));
  const PointId n = view.num_points();
  const size_t k = medoids.size();
  if (k == 0) return Violation("kmedoids", "empty medoid set");
  if (c.num_clusters != static_cast<int>(k)) {
    return Violation("kmedoids",
                     "num_clusters = " + std::to_string(c.num_clusters) +
                         " for " + std::to_string(k) + " medoids");
  }
  std::unordered_set<PointId> medoid_set;
  for (PointId m : medoids) {
    if (m >= n) {
      return Violation("kmedoids",
                       "medoid point id " + std::to_string(m) + " >= N");
    }
    if (!medoid_set.insert(m).second) {
      return Violation("kmedoids",
                       "duplicate medoid point " + std::to_string(m));
    }
  }
  if (!std::isfinite(cost) || cost < 0.0) {
    return Violation("kmedoids",
                     "evaluation function R = " + std::to_string(cost) +
                         " is not a finite non-negative value");
  }

  // Re-verify nearest-medoid tags with an independent per-pair Dijkstra:
  // every point on all points (exact mode), a deterministic sample at
  // scale. Exact mode also re-derives R.
  const bool exact = n <= limits.exact_max_points;
  const PointId stride = exact ? 1 : SampleStride(n, limits);
  TraversalWorkspace ws(view.num_nodes());
  double recomputed_cost = 0.0;
  for (PointId p = 0; p < n; p += stride) {
    double best = kInfDist;
    for (PointId m : medoids) {
      best = std::min(best, PointNetworkDistance(view, view, p, m, &ws));
    }
    int assigned = c.assignment[p];
    if (assigned == kNoise) {
      if (best < kInfDist) {
        return Violation("kmedoids",
                         "point " + std::to_string(p) +
                             " is noise but can reach a medoid at distance " +
                             std::to_string(best));
      }
      continue;
    }
    double d_assigned =
        PointNetworkDistance(view, view, p, medoids[assigned], &ws);
    if (d_assigned > best + Tolerance(best)) {
      return Violation(
          "kmedoids",
          "point " + std::to_string(p) + " is tagged with medoid " +
              std::to_string(assigned) + " at distance " +
              std::to_string(d_assigned) + " but its nearest medoid is at " +
              std::to_string(best));
    }
    recomputed_cost += d_assigned;
  }
  if (exact && std::abs(recomputed_cost - cost) >
                   1e-6 * std::max(1.0, std::abs(cost))) {
    return Violation("kmedoids",
                     "reported R = " + std::to_string(cost) +
                         " but independent reassignment gives " +
                         std::to_string(recomputed_cost));
  }
  return Status::OK();
}

Status ValidateEpsLink(const NetworkView& view, const Clustering& c,
                       const EpsLinkOptions& options,
                       const ValidateLimits& limits) {
  NETCLUS_RETURN_IF_ERROR(ValidateClusteringShape(view, c));
  NETCLUS_RETURN_IF_ERROR(CheckContiguousIds("epslink", c));
  if (!(options.eps > 0.0)) {
    return Violation("epslink", "non-positive eps");
  }
  const PointId n = view.num_points();
  if (n == 0) return Status::OK();
  TraversalWorkspace ws(view.num_nodes());
  std::vector<RangeResult> reach;

  if (n <= limits.exact_max_points) {
    // Independent oracle: rebuild the ε-connectivity components with one
    // ε-range query per point, then demand a bijection between
    // components of size >= min_sup and cluster ids.
    UnionFind uf(n);
    for (PointId p = 0; p < n; ++p) {
      RangeQuery(view, view, p, options.eps, &ws, &reach);
      for (const RangeResult& r : reach) {
        if (r.id != p) uf.Union(p, r.id);
      }
    }
    std::unordered_map<uint32_t, int> component_cluster;
    std::unordered_map<int, uint32_t> cluster_component;
    for (PointId p = 0; p < n; ++p) {
      uint32_t root = uf.Find(p);
      uint32_t size = uf.SizeOf(p);
      int id = c.assignment[p];
      if (size < options.min_sup) {
        if (id != kNoise) {
          return Violation("epslink",
                           "point " + std::to_string(p) +
                               " lies in an ε-component of size " +
                               std::to_string(size) + " < min_sup " +
                               std::to_string(options.min_sup) +
                               " but is not noise");
        }
        continue;
      }
      if (id == kNoise) {
        return Violation("epslink",
                         "point " + std::to_string(p) +
                             " is noise inside an ε-component of size " +
                             std::to_string(size) + " >= min_sup");
      }
      auto [cit, cinserted] = component_cluster.emplace(root, id);
      if (!cinserted && cit->second != id) {
        return Violation(
            "epslink", "clusters " + std::to_string(cit->second) + " and " +
                           std::to_string(id) +
                           " are ε-linked (not ε-separated; point " +
                           std::to_string(p) + ")");
      }
      auto [rit, rinserted] = cluster_component.emplace(id, root);
      if (!rinserted && rit->second != root) {
        return Violation(
            "epslink", "cluster " + std::to_string(id) +
                           " spans two ε-components (not ε-connected; point " +
                           std::to_string(p) + ")");
      }
    }
    return Status::OK();
  }

  // At scale: every ε-linked pair among a deterministic sample of range
  // queries must agree on its cluster id (a clustered point's whole
  // ε-neighborhood belongs to its cluster; noise is only ever ε-linked
  // to noise).
  for (PointId p = 0; p < n; p += SampleStride(n, limits)) {
    RangeQuery(view, view, p, options.eps, &ws, &reach);
    for (const RangeResult& r : reach) {
      if (c.assignment[r.id] != c.assignment[p]) {
        return Violation("epslink",
                         "points " + std::to_string(p) + " and " +
                             std::to_string(r.id) + " are within ε = " +
                             std::to_string(options.eps) +
                             " but carry cluster ids " +
                             std::to_string(c.assignment[p]) + " and " +
                             std::to_string(c.assignment[r.id]));
      }
    }
  }
  return Status::OK();
}

Status ValidateDbscan(const NetworkView& view, const Clustering& c,
                      const DbscanOptions& options,
                      const ValidateLimits& limits) {
  NETCLUS_RETURN_IF_ERROR(ValidateClusteringShape(view, c));
  NETCLUS_RETURN_IF_ERROR(CheckContiguousIds("dbscan", c));
  if (!(options.eps > 0.0)) {
    return Violation("dbscan", "non-positive eps");
  }
  const PointId n = view.num_points();
  if (n == 0) return Status::OK();
  TraversalWorkspace ws(view.num_nodes());
  std::vector<RangeResult> reach;

  if (n > limits.exact_max_points) {
    // Structural spot check: a point with a core-sized neighborhood can
    // never be noise.
    for (PointId p = 0; p < n; p += SampleStride(n, limits)) {
      RangeQuery(view, view, p, options.eps, &ws, &reach);
      if (reach.size() >= options.min_pts && c.assignment[p] == kNoise) {
        return Violation("dbscan", "core point " + std::to_string(p) +
                                       " (neighborhood size " +
                                       std::to_string(reach.size()) +
                                       ") is noise");
      }
    }
    return Status::OK();
  }

  // Exact mode: recompute every neighborhood independently, derive core
  // flags, and check the DBSCAN partition axioms point by point.
  std::vector<std::vector<PointId>> nbrs(n);
  std::vector<bool> core(n, false);
  for (PointId p = 0; p < n; ++p) {
    RangeQuery(view, view, p, options.eps, &ws, &reach);
    nbrs[p].reserve(reach.size());
    for (const RangeResult& r : reach) nbrs[p].push_back(r.id);
    std::sort(nbrs[p].begin(), nbrs[p].end());
    core[p] = nbrs[p].size() >= options.min_pts;
  }
  for (PointId p = 0; p < n; ++p) {
    // ε-neighborhood symmetry — an audit of the range query itself.
    for (PointId q : nbrs[p]) {
      if (!std::binary_search(nbrs[q].begin(), nbrs[q].end(), p)) {
        return Violation("dbscan", "asymmetric ε-neighborhood: " +
                                       std::to_string(q) + " in N(" +
                                       std::to_string(p) + ") but not " +
                                       std::to_string(p) + " in N(" +
                                       std::to_string(q) + ")");
      }
    }
    int id = c.assignment[p];
    if (core[p]) {
      if (id == kNoise) {
        return Violation("dbscan",
                         "core point " + std::to_string(p) + " is noise");
      }
      for (PointId q : nbrs[p]) {
        if (core[q] && c.assignment[q] != id) {
          return Violation("dbscan",
                           "ε-close core points " + std::to_string(p) +
                               " and " + std::to_string(q) +
                               " lie in clusters " + std::to_string(id) +
                               " and " + std::to_string(c.assignment[q]));
        }
      }
    } else if (id != kNoise) {
      bool claimed = false;
      for (PointId q : nbrs[p]) {
        if (core[q] && c.assignment[q] == id) {
          claimed = true;
          break;
        }
      }
      if (!claimed) {
        return Violation("dbscan", "border point " + std::to_string(p) +
                                       " in cluster " + std::to_string(id) +
                                       " has no core point of that cluster "
                                       "within ε");
      }
    } else {
      for (PointId q : nbrs[p]) {
        if (core[q]) {
          return Violation("dbscan",
                           "noise point " + std::to_string(p) +
                               " lies within ε of core point " +
                               std::to_string(q));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateDendrogram(const Dendrogram& dendrogram,
                          const SingleLinkOptions& options) {
  const PointId n = dendrogram.num_points();
  const std::vector<Merge>& merges = dendrogram.merges();
  if (n == 0) {
    if (!merges.empty()) {
      return Violation("singlelink", "merges recorded over zero points");
    }
    return Status::OK();
  }
  if (merges.size() > static_cast<size_t>(n) - 1) {
    return Violation("singlelink",
                     std::to_string(merges.size()) + " merges over " +
                         std::to_string(n) + " points (max n-1)");
  }
  UnionFind uf(n);
  double prev = -kInfDist;
  for (size_t i = 0; i < merges.size(); ++i) {
    const Merge& m = merges[i];
    if (m.a >= n || m.b >= n) {
      return Violation("singlelink",
                       "merge " + std::to_string(i) +
                           " references point ids " + std::to_string(m.a) +
                           "/" + std::to_string(m.b) + " outside [0, " +
                           std::to_string(n) + ")");
    }
    if (!std::isfinite(m.distance) || m.distance < 0.0) {
      return Violation("singlelink", "merge " + std::to_string(i) +
                                         " carries distance " +
                                         std::to_string(m.distance));
    }
    if (m.distance > options.stop_distance && m.distance > options.delta) {
      return Violation("singlelink",
                       "merge " + std::to_string(i) + " at distance " +
                           std::to_string(m.distance) +
                           " exceeds stop_distance " +
                           std::to_string(options.stop_distance));
    }
    // δ pre-merges (distance <= δ) may appear anywhere out of order; the
    // exact part of the dendrogram must be non-decreasing.
    if (m.distance > options.delta) {
      if (m.distance + Tolerance(prev) < prev) {
        return Violation(
            "singlelink",
            "merge distances not non-decreasing: merge " + std::to_string(i) +
                " at " + std::to_string(m.distance) + " after " +
                std::to_string(prev));
      }
      prev = std::max(prev, m.distance);
    }
    if (!uf.Union(m.a, m.b)) {
      return Violation("singlelink",
                       "merge " + std::to_string(i) + " joins points " +
                           std::to_string(m.a) + " and " +
                           std::to_string(m.b) +
                           " that were already in one cluster");
    }
  }
  return Status::OK();
}

Status ValidateHeap(const std::vector<DijkstraHeapEntry>& heap) {
  for (const DijkstraHeapEntry& e : heap) {
    if (std::isnan(e.dist)) {
      return Violation("workspace", "NaN distance in heap for node " +
                                        std::to_string(e.node));
    }
  }
  if (!std::is_heap(heap.begin(), heap.end(),
                    std::greater<DijkstraHeapEntry>())) {
    return Violation("workspace", "heap property violated");
  }
  return Status::OK();
}

Status ValidateSettleLog(
    const std::vector<std::pair<NodeId, double>>& settled, NodeId num_nodes) {
  std::vector<bool> seen(num_nodes, false);
  double prev = -kInfDist;
  for (size_t i = 0; i < settled.size(); ++i) {
    const auto& [node, dist] = settled[i];
    if (node >= num_nodes) {
      return Violation("workspace", "settle log entry " + std::to_string(i) +
                                        " names node " + std::to_string(node) +
                                        " >= |V|");
    }
    if (seen[node]) {
      return Violation("workspace", "node " + std::to_string(node) +
                                        " settled twice");
    }
    seen[node] = true;
    if (!std::isfinite(dist) || dist < 0.0) {
      return Violation("workspace", "settle log entry " + std::to_string(i) +
                                        " carries distance " +
                                        std::to_string(dist));
    }
    if (dist + Tolerance(prev) < prev) {
      return Violation("workspace",
                       "settle order not non-decreasing: node " +
                           std::to_string(node) + " at " +
                           std::to_string(dist) + " after " +
                           std::to_string(prev));
    }
    prev = std::max(prev, dist);
  }
  return Status::OK();
}

Status ValidateWorkspace(const TraversalWorkspace& ws, NodeId num_nodes) {
  if (ws.scratch.size() != num_nodes) {
    return Violation("workspace",
                     "scratch sized for " + std::to_string(ws.scratch.size()) +
                         " nodes on a network of " + std::to_string(num_nodes));
  }
  NETCLUS_RETURN_IF_ERROR(ValidateHeap(ws.heap));
  return ValidateSettleLog(ws.settled, num_nodes);
}

namespace {

// The snapshot's point layer against the view: the group table must
// replay ForEachPointGroup exactly (same edges, ranges and order, each
// weight the view's EdgeWeight), and every point's offset must equal the
// one GetEdgePoints reports for it.
Status ValidatePointLayer(const NetworkView& view, const FrozenGraph& frozen) {
  const std::vector<double>& offsets = frozen.point_offsets();
  const std::vector<FrozenGraph::PointGroup>& groups = frozen.point_groups();
  if (offsets.size() != view.num_points()) {
    return Violation("frozen", "point layer holds " +
                                   std::to_string(offsets.size()) +
                                   " offsets for a view of " +
                                   std::to_string(view.num_points()) +
                                   " points");
  }
  std::string mismatch;
  size_t g = 0;
  std::vector<EdgePoint> pts;
  view.ForEachPointGroup(
      [&](NodeId u, NodeId v, PointId first, uint32_t count) {
        if (!mismatch.empty()) return;
        const std::string edge =
            "edge {" + std::to_string(u) + ", " + std::to_string(v) + "}";
        if (g >= groups.size()) {
          mismatch = "point layer has no group for " + edge;
          return;
        }
        const FrozenGraph::PointGroup& pg = groups[g++];
        if (pg.u != u || pg.v != v || pg.first != first ||
            pg.count != count) {
          mismatch = "point layer group " + std::to_string(g - 1) +
                     " is edge {" + std::to_string(pg.u) + ", " +
                     std::to_string(pg.v) + "} range (" +
                     std::to_string(pg.first) + ", " +
                     std::to_string(pg.count) + "), view has " + edge +
                     " range (" + std::to_string(first) + ", " +
                     std::to_string(count) + ")";
          return;
        }
        if (pg.weight != view.EdgeWeight(u, v)) {
          mismatch = "point layer weight of " + edge + " is " +
                     std::to_string(pg.weight) + ", view has " +
                     std::to_string(view.EdgeWeight(u, v));
          return;
        }
        view.GetEdgePoints(u, v, &pts);
        for (const EdgePoint& ep : pts) {
          if (ep.id >= offsets.size() || offsets[ep.id] != ep.offset) {
            mismatch = "point " + std::to_string(ep.id) + " on " + edge +
                       ": point layer offset differs from the view's " +
                       std::to_string(ep.offset);
            return;
          }
        }
      });
  if (mismatch.empty() && g != groups.size()) {
    mismatch = "point layer has " + std::to_string(groups.size()) +
               " groups but the view scans " + std::to_string(g);
  }
  if (!mismatch.empty()) return Violation("frozen", std::move(mismatch));
  return Status::OK();
}

}  // namespace

Status ValidateFrozenGraph(const NetworkView& view,
                           const FrozenGraph& frozen) {
  const NodeId num_nodes = view.num_nodes();
  if (frozen.num_nodes() != num_nodes) {
    return Violation("frozen",
                     "snapshot has " + std::to_string(frozen.num_nodes()) +
                         " nodes for a view of " + std::to_string(num_nodes));
  }

  // Neighbor sequences: same ids and weights in the same order — the
  // exact property bit-identical traversal trajectories depend on.
  std::vector<std::pair<NodeId, double>> expect;
  size_t half_edges = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    expect.clear();
    VisitNeighbors(view, n,
                   [&](NodeId m, double w) { expect.emplace_back(m, w); });
    if (frozen.degree(n) != expect.size()) {
      return Violation("frozen",
                       "node " + std::to_string(n) + " has CSR degree " +
                           std::to_string(frozen.degree(n)) +
                           " but view degree " +
                           std::to_string(expect.size()));
    }
    half_edges += expect.size();
    size_t i = 0;
    std::string mismatch;
    VisitNeighbors(frozen, n, [&](NodeId m, double w) {
      if (!mismatch.empty() || i >= expect.size()) {
        ++i;
        return;
      }
      // Exact equality, not tolerance: the slots are copies of the very
      // doubles the view hands out, so any difference is corruption.
      if (expect[i].first != m || expect[i].second != w) {
        mismatch = "node " + std::to_string(n) + " neighbor slot " +
                   std::to_string(i) + ": CSR has (" + std::to_string(m) +
                   ", " + std::to_string(w) + "), view has (" +
                   std::to_string(expect[i].first) + ", " +
                   std::to_string(expect[i].second) + ")";
      }
      ++i;
    });
    if (!mismatch.empty()) return Violation("frozen", std::move(mismatch));
  }
  if (frozen.num_half_edges() != half_edges) {
    return Violation("frozen",
                     "snapshot stores " +
                         std::to_string(frozen.num_half_edges()) +
                         " half-edges but the view iterates " +
                         std::to_string(half_edges));
  }

  // Point-range handles: every point-bearing edge of the view must map
  // to the identical (first, count) range in the snapshot.
  if (!frozen.has_point_layer()) {
    return Violation("frozen",
                     "snapshot built without a point layer cannot serve "
                     "traversal clients of a point-bearing view");
  }
  std::string pt_mismatch;
  view.ForEachPointGroup(
      [&](NodeId u, NodeId v, PointId first, uint32_t count) {
        if (!pt_mismatch.empty()) return;
        auto [got_first, got_count] = frozen.EdgePointRange(u, v);
        if (got_first != first || got_count != count) {
          pt_mismatch = "edge {" + std::to_string(u) + ", " +
                        std::to_string(v) + "}: CSR point range (" +
                        std::to_string(got_first) + ", " +
                        std::to_string(got_count) + ") != view range (" +
                        std::to_string(first) + ", " + std::to_string(count) +
                        ")";
        }
      });
  if (!pt_mismatch.empty()) return Violation("frozen", std::move(pt_mismatch));
  NETCLUS_RETURN_IF_ERROR(ValidatePointLayer(view, frozen));
  return view.status();
}

}  // namespace netclus
