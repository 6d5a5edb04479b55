// DistanceIndex: the landmark index k-medoids prunes its swaps with.
//
// Wraps one LandmarkOracle (O(k) ALT lower/upper bounds on d(p, q))
// built once per (network, point set) and immutable afterwards.
// Mutating the network invalidates it: build a new index.
//
// Every bound is audited by ValidateLandmarkOracle in core/validate.cc
// against exact Dijkstra distances.
#ifndef NETCLUS_INDEX_DISTANCE_INDEX_H_
#define NETCLUS_INDEX_DISTANCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/network_view.h"
#include "graph/types.h"
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
  /// Worker threads for the landmark table build (0 = one per core,
  /// 1 = serial). Build results are bit-identical across thread counts.
  uint32_t num_threads = 0;
};

/// \brief Snapshot of the index for one run.
struct IndexStats {
  uint32_t num_landmarks = 0;
  /// Always 0: the index holds no distance cache (the served cache
  /// lives in server/distance_cache.h). Kept for existing readers.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// \brief The landmark oracle k-medoids reads, built per clustering run.
/// Immutable after Build.
class DistanceIndex {
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

  /// Assembles an index from a prebuilt oracle (Build's back end).
  explicit DistanceIndex(LandmarkOracle landmarks)
      : landmarks_(std::move(landmarks)) {}

  IndexStats Stats() const;

  const LandmarkOracle& landmarks() const { return landmarks_; }

  /// Mutable landmark access so tests can seed a corrupt bound and
  /// prove the validator rejects it.
  LandmarkOracle* mutable_landmarks_for_testing() { return &landmarks_; }

 private:
  LandmarkOracle landmarks_;
};

}  // namespace netclus

#endif  // NETCLUS_INDEX_DISTANCE_INDEX_H_
