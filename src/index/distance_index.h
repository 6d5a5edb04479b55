// DistanceIndex: the facade of the read-side acceleration subsystem.
//
// Bundles the two cooperating components behind the graph-layer
// DistanceAccelerator interface:
//   - LandmarkOracle  O(k) ALT lower/upper bounds on d(p, q)
//   - DistanceCache   sharded LRU of exact point-pair distances
//
// The index is built once per (network, point set) and is immutable
// except for the cache, which fills as queries run. Mutating the
// network invalidates everything: build a new index.
//
// Every served bound is audited by ValidateDistanceAccelerator in
// core/validate.cc against exact Dijkstra distances.
#ifndef NETCLUS_INDEX_DISTANCE_INDEX_H_
#define NETCLUS_INDEX_DISTANCE_INDEX_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/accelerator.h"
#include "graph/network_view.h"
#include "graph/types.h"
#include "index/distance_cache.h"
#include "index/landmark_oracle.h"

namespace netclus {

/// \brief Construction knobs for the distance index (ClusterSpec::index).
struct IndexOptions {
  /// Master switch: RunClustering builds an index for a k-medoids spec
  /// (the only algorithm that reads one) only when true. Results are
  /// identical either way — the index is a pure accelerator (audited
  /// under NETCLUS_VALIDATE).
  bool enable = false;
  /// ALT landmarks (farthest-point sampled); 0 disables landmark bounds.
  uint32_t num_landmarks = 8;
  /// Total point-pair cache entries across the cache's default 16
  /// shards; 0 disables the cache.
  size_t cache_capacity = 1 << 16;
  /// Worker threads for the landmark table build (0 = one per core,
  /// 1 = serial). Build results are bit-identical across thread counts.
  uint32_t num_threads = 0;
};

/// \brief Snapshot of index effectiveness counters for one run.
struct IndexStats {
  uint32_t num_landmarks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stores = 0;
  uint64_t cache_evictions = 0;
};

/// \brief The concrete DistanceAccelerator combining both components.
///
/// Not movable (the cache holds mutexes); lives behind a unique_ptr.
/// All query methods are safe to call concurrently.
class DistanceIndex : public DistanceAccelerator {
 public:
  /// Builds the landmark tables for `view` per `options` (in parallel
  /// on `pool`; null pool = serial, identical results). An
  /// in-memory view is frozen for the build; any other view is traversed
  /// directly. Prefer this over the constructor — it runs the traversals
  /// and surfaces view I/O errors as a Status.
  static Result<std::unique_ptr<DistanceIndex>> Build(
      const NetworkView& view, const IndexOptions& options, ThreadPool* pool);

  /// As above with the traversal graph supplied by the caller: a
  /// FrozenGraph snapshot of `view` (RunClustering shares the one its
  /// algorithms run on) or the view itself. Bit-identical index contents
  /// either way.
  template <TraversalGraph Graph>
  static Result<std::unique_ptr<DistanceIndex>> Build(
      const NetworkView& view, const Graph& graph, const IndexOptions& options,
      ThreadPool* pool);

  /// Assembles an index from prebuilt components (Build's back end;
  /// public so tests can inject doctored components).
  DistanceIndex(const IndexOptions& options, LandmarkOracle landmarks)
      : options_(options),
        landmarks_(std::move(landmarks)),
        cache_(options.cache_capacity) {}

  double LowerBound(PointId a, PointId b) const override {
    return landmarks_.LowerBound(a, b);
  }
  double UpperBound(PointId a, PointId b) const override {
    return landmarks_.UpperBound(a, b);
  }
  void NearestTargetLowerBounds(const std::vector<PointId>& points,
                                const std::vector<PointId>& targets,
                                double* lb) const override {
    landmarks_.NearestTargetLowerBounds(points, targets, lb);
  }
  bool LookupDistance(PointId a, PointId b, double* out) const override {
    return cache_.Lookup(a, b, out);
  }
  void StoreDistance(PointId a, PointId b, double dist) const override {
    cache_.Store(a, b, dist);
  }

  IndexStats Stats() const;

  const LandmarkOracle& landmarks() const { return landmarks_; }
  const DistanceCache& cache() const { return cache_; }
  const IndexOptions& options() const { return options_; }

  /// Mutable landmark access so tests can seed a corrupt bound and
  /// prove the validator rejects it.
  LandmarkOracle* mutable_landmarks_for_testing() { return &landmarks_; }

 private:
  IndexOptions options_;
  LandmarkOracle landmarks_;
  DistanceCache cache_;
};

}  // namespace netclus

#endif  // NETCLUS_INDEX_DISTANCE_INDEX_H_
