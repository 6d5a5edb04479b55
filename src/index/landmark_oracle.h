// ALT-style landmark oracle: O(k) triangle-inequality lower and upper
// bounds on point-pair network distances.
//
// k landmark nodes are chosen by farthest-point sampling (the standard
// "avoid clustered landmarks" heuristic; on disconnected networks the
// infinite separation between components makes FPS place one landmark
// per component before refining within components). For each landmark L
// the oracle stores the exact network distance to every point p — the
// SSSP from L gives node distances nd[], and d(L, p) for p = <u, v, o>
// is min(nd[u] + o, nd[v] + w - o), exact because every path from L to
// an edge-interior point enters through an endpoint.
//
// Bounds served, for any points a, b (triangle inequality both ways):
//   LowerBound(a, b) = max_L |d(L, a) - d(L, b)|  <=  d(a, b)
//   UpperBound(a, b) = min_L (d(L, a) + d(L, b))  >=  d(a, b)
// A lower bound of kInfDist is a proof of disconnection (one side
// reaches a landmark the other cannot).
#ifndef NETCLUS_INDEX_LANDMARK_ORACLE_H_
#define NETCLUS_INDEX_LANDMARK_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

/// \brief Per-landmark exact point-distance tables with O(k) bound queries.
///
/// Immutable after Build; all const methods are safe to call concurrently.
class LandmarkOracle {
 public:
  /// Builds an oracle with min(num_landmarks, |V|) landmarks, every
  /// landmark SSSP running over `graph`: a FrozenGraph snapshot of `view`
  /// or the view itself (bit-identical tables either way). Landmark
  /// selection (farthest-point sampling) is inherently sequential — each
  /// pick needs the previous landmark's SSSP — but the per-landmark
  /// point-distance tables are filled in parallel on `pool` (null pool =
  /// serial), with identical results either way.
  template <TraversalGraph Graph>
  static Result<LandmarkOracle> Build(const NetworkView& view,
                                      const Graph& graph,
                                      uint32_t num_landmarks,
                                      ThreadPool* pool);

  uint32_t num_landmarks() const {
    return static_cast<uint32_t>(landmarks_.size());
  }
  const std::vector<NodeId>& landmarks() const { return landmarks_; }

  /// A value <= d(a, b); kInfDist proves disconnection. 0 with no
  /// landmarks (vacuous).
  double LowerBound(PointId a, PointId b) const;

  /// A value >= d(a, b); kInfDist with no landmarks (vacuous).
  double UpperBound(PointId a, PointId b) const;

  /// Batch lower bounds on the distance from each of `points` to its
  /// nearest member of `targets`: lowers lb[j] to
  /// min(lb[j], min_t LowerBound(points[j], t)). Callers seed lb[j] with
  /// a cap (kInfDist for none). The values equal the per-pair minima;
  /// each target's landmark distances are gathered once per call.
  void NearestTargetLowerBounds(const std::vector<PointId>& points,
                                const std::vector<PointId>& targets,
                                double* lb) const;

  /// Exact network distance from landmark index `l` to point `p`.
  double LandmarkPointDistance(uint32_t l, PointId p) const;

  /// Overwrites one table entry, deliberately breaking the bound
  /// invariant so tests can prove the validator catches it.
  void CorruptEntryForTesting(uint32_t l, PointId p, double value);

 private:
  LandmarkOracle() = default;

  PointId num_points_ = 0;
  std::vector<NodeId> landmarks_;
  /// Row-major [l * num_points_ + p] exact landmark-to-point distances.
  std::vector<double> point_dist_;
};

}  // namespace netclus

#endif  // NETCLUS_INDEX_LANDMARK_ORACLE_H_
