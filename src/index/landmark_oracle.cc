#include "index/landmark_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "graph/dijkstra.h"
#include "graph/edge_points.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

// Farthest-point sampling pick: the node with the largest distance to
// the already-chosen landmark set (unreached nodes compare as kInfDist,
// so every component receives a landmark before any component gets a
// second one). Ties break toward the smallest node id for determinism.
NodeId FarthestNode(const std::vector<double>& min_dist) {
  NodeId best = 0;
  for (NodeId n = 1; n < static_cast<NodeId>(min_dist.size()); ++n) {
    if (min_dist[n] > min_dist[best]) best = n;
  }
  return best;
}

// One landmark SSSP into a dense |V| distance row, via the reusable
// workspace overload (the allocating DijkstraDistances is tests-only).
template <typename Graph>
void LandmarkSssp(const Graph& graph, NodeId source, NodeId num_nodes,
                  TraversalWorkspace* ws, std::vector<double>* out) {
  DijkstraDistances(graph, {DijkstraSource{source, 0.0}}, ws);
  out->resize(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    (*out)[n] = ws->scratch.Get(n);
  }
}

}  // namespace

template <TraversalGraph Graph>
Result<LandmarkOracle> LandmarkOracle::Build(const NetworkView& view,
                                             const Graph& graph,
                                             uint32_t num_landmarks,
                                             ThreadPool* pool) {
  LandmarkOracle oracle;
  oracle.num_points_ = view.num_points();
  const NodeId num_nodes = view.num_nodes();
  const uint32_t k = std::min<uint32_t>(num_landmarks, num_nodes);
  if (k == 0) return oracle;  // vacuous bounds

  // Phase 1 (sequential): farthest-point sampling. Each landmark's full
  // SSSP is both the FPS distance update and the raw material for its
  // point table, so the node-distance rows are kept for phase 2.
  std::vector<std::vector<double>> node_dist(k);
  std::vector<double> min_dist(num_nodes, kInfDist);
  TraversalWorkspace ws(num_nodes);
  for (uint32_t l = 0; l < k; ++l) {
    NodeId pick = l == 0 ? NodeId{0} : FarthestNode(min_dist);
    oracle.landmarks_.push_back(pick);
    LandmarkSssp(graph, pick, num_nodes, &ws, &node_dist[l]);
    for (NodeId n = 0; n < num_nodes; ++n) {
      min_dist[n] = std::min(min_dist[n], node_dist[l][n]);
    }
  }

  // Each point's position and edge weight, read once for all landmarks
  // in one pass over the point groups. Over a disk-backed view a failed
  // read yields weight -1; the view's status() then reports it.
  const PointId num_points = oracle.num_points_;
  std::vector<PointPos> pos(num_points);
  std::vector<double> edge_w(num_points);
  EdgePointReader reader(graph);
  reader.ForEachGroup([&](NodeId u, NodeId v, double w,
                          const EdgePointSpan& pts) {
    if (w < 0.0 && !view.status().ok()) return;
    NETCLUS_CHECK_GE(w, 0.0) << "points on missing edge {" << u << ", " << v
                             << "}";
    for (uint32_t i = 0; i < pts.count; ++i) {
      pos[pts.first + i] = PointPos{u, v, pts.offsets[i]};
      edge_w[pts.first + i] = w;
    }
  });
  NETCLUS_RETURN_IF_ERROR(view.status());

  // Phase 2 (parallel over landmarks): convert node distances into exact
  // point distances. Each row is an independent per-index output slot,
  // so the result is bit-identical to a serial fill.
  oracle.point_dist_.assign(static_cast<size_t>(k) * num_points, kInfDist);
  double* base = oracle.point_dist_.data();
  ParallelFor(pool, k, [&](size_t l, uint32_t /*worker*/) {
    const std::vector<double>& nd = node_dist[l];
    double* out = base + l * num_points;
    for (PointId p = 0; p < num_points; ++p) {
      out[p] = std::min(nd[pos[p].u] + pos[p].offset,
                        nd[pos[p].v] + (edge_w[p] - pos[p].offset));
    }
  });

  NETCLUS_RETURN_IF_ERROR(view.status());
  return oracle;
}

template Result<LandmarkOracle> LandmarkOracle::Build(const NetworkView&,
                                                      const FrozenGraph&,
                                                      uint32_t, ThreadPool*);
template Result<LandmarkOracle> LandmarkOracle::Build(const NetworkView&,
                                                      const NetworkView&,
                                                      uint32_t, ThreadPool*);

double LandmarkOracle::LowerBound(PointId a, PointId b) const {
  double lb = 0.0;
  for (uint32_t l = 0; l < num_landmarks(); ++l) {
    double da = point_dist_[static_cast<size_t>(l) * num_points_ + a];
    double db = point_dist_[static_cast<size_t>(l) * num_points_ + b];
    // Both infinite: the landmark sees neither side; |da - db| would be
    // NaN and the landmark proves nothing — skip it.
    if (da == kInfDist && db == kInfDist) continue;
    double diff = std::fabs(da - db);  // kInfDist when exactly one is inf
    if (diff > lb) lb = diff;
    if (lb == kInfDist) break;  // disconnection proven
  }
  return lb;
}

double LandmarkOracle::UpperBound(PointId a, PointId b) const {
  double ub = kInfDist;
  for (uint32_t l = 0; l < num_landmarks(); ++l) {
    double da = point_dist_[static_cast<size_t>(l) * num_points_ + a];
    double db = point_dist_[static_cast<size_t>(l) * num_points_ + b];
    double sum = da + db;  // inf-safe: inf + x = inf
    if (sum < ub) ub = sum;
  }
  return ub;
}

void LandmarkOracle::NearestTargetLowerBounds(
    const std::vector<PointId>& points, const std::vector<PointId>& targets,
    double* lb) const {
  const uint32_t num_l = num_landmarks();
  auto at = [&](uint32_t l, PointId p) {
    return point_dist_[static_cast<size_t>(l) * num_points_ + p];
  };
  // Target-major landmark distances, gathered once for all points.
  std::vector<double> target_dist(targets.size() * num_l);
  for (size_t t = 0; t < targets.size(); ++t) {
    for (uint32_t l = 0; l < num_l; ++l) {
      target_dist[t * num_l + l] = at(l, targets[t]);
    }
  }
  for (size_t j = 0; j < points.size(); ++j) {
    double lo = lb[j];
    for (size_t t = 0; t < targets.size(); ++t) {
      const double* td = target_dist.data() + t * num_l;
      // LowerBound's arithmetic (std::max keeps its first argument when
      // the second is NaN, so a landmark that sees neither side is
      // skipped), stopped once the pair cannot lower lb[j]: the result
      // is exactly the full scan's, and the remaining rows go unread.
      double pair_lb = 0.0;
      for (uint32_t l = 0; l < num_l && pair_lb < lo; ++l) {
        pair_lb = std::max(pair_lb, std::fabs(at(l, points[j]) - td[l]));
      }
      lo = std::min(lo, pair_lb);
    }
    lb[j] = lo;
  }
}

double LandmarkOracle::LandmarkPointDistance(uint32_t l, PointId p) const {
  NETCLUS_CHECK_LT(l, num_landmarks());
  NETCLUS_CHECK_LT(p, num_points_);
  return point_dist_[static_cast<size_t>(l) * num_points_ + p];
}

void LandmarkOracle::CorruptEntryForTesting(uint32_t l, PointId p,
                                            double value) {
  NETCLUS_CHECK_LT(l, num_landmarks());
  NETCLUS_CHECK_LT(p, num_points_);
  point_dist_[static_cast<size_t>(l) * num_points_ + p] = value;
}

}  // namespace netclus
