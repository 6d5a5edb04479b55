// Read-side acceleration interface consumed by the point-to-point
// distance primitive (graph/network_distance.h) and k-medoids' swap
// pruning (core/kmedoids.h).
//
// The graph layer cannot depend on src/index (layering runs the other
// way), so queries accept this abstract view of "whatever acceleration
// structures exist". The default implementations are the vacuous bounds
// — every query degrades gracefully to the exact unaccelerated path —
// and src/index/distance_index.h provides the real implementation.
//
// Correctness contract (audited by core/validate.cc): for any points p,
// q with exact network distance d(p, q),
//   LowerBound(p, q)  <=  d(p, q)  <=  UpperBound(p, q)
// and a LookupDistance hit returns exactly a value previously passed to
// StoreDistance for that pair.
#ifndef NETCLUS_GRAPH_ACCELERATOR_H_
#define NETCLUS_GRAPH_ACCELERATOR_H_

#include <algorithm>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/types.h"

namespace netclus {

/// \brief Abstract acceleration oracle for point-pair distance queries.
///
/// All methods must be safe to call concurrently from many threads.
class DistanceAccelerator {
 public:
  virtual ~DistanceAccelerator() = default;

  /// A value <= the exact network distance d(a, b). kInfDist is a valid
  /// return and proves a and b are disconnected.
  virtual double LowerBound(PointId /*a*/, PointId /*b*/) const {
    return 0.0;
  }

  /// A value >= the exact network distance d(a, b).
  virtual double UpperBound(PointId /*a*/, PointId /*b*/) const {
    return kInfDist;
  }

  /// Batch lower bounds on the distance from each of `points` to its
  /// nearest member of `targets`: lowers lb[j] to
  /// min(lb[j], min_t LowerBound(points[j], t)). Callers seed lb[j] with
  /// a cap (kInfDist for none). An override may only change how the
  /// values are computed, never the values.
  virtual void NearestTargetLowerBounds(const std::vector<PointId>& points,
                                        const std::vector<PointId>& targets,
                                        double* lb) const {
    for (size_t j = 0; j < points.size(); ++j) {
      for (PointId t : targets) {
        lb[j] = std::min(lb[j], LowerBound(points[j], t));
      }
    }
  }

  /// If the exact distance d(a, b) is cached, writes it to `*out` and
  /// returns true.
  virtual bool LookupDistance(PointId /*a*/, PointId /*b*/,
                              double* /*out*/) const {
    return false;
  }

  /// Offers the exact distance d(a, b) for caching.
  virtual void StoreDistance(PointId /*a*/, PointId /*b*/,
                             double /*dist*/) const {}
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_ACCELERATOR_H_
