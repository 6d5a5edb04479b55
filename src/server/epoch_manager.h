// EpochManager: RCU-style publication of EpochSnapshots.
//
// The lifecycle of an epoch:
//
//   Publish(world)        — the updater wraps the new world in an
//        |                  EpochSnapshot (monotone id) and swaps it in
//        v                  as current, dropping the manager's reference
//   current ──Current()──>  to the predecessor (after releasing the lock)
//        |                  readers copy the shared_ptr and run queries
//        v                  against it; holding that copy IS the pin,
//   retired                 and new readers always see the newest epoch
//        |
//        v                 the last reader to drop its copy frees the
//   freed                   snapshot — never sooner, so readers mid-drain
//                           keep a stable world
//
// Synchronization contract: Current and Publish serialize on one brief
// mutex (a pointer copy or swap; no traversal work happens under it).
// Dropping a reader's copy is lock-free, and snapshot teardown never runs
// under the mutex. A retired snapshot can never gain new readers —
// Current only hands out the current one — so the drain accounting is
// exact; tsan agrees (tests/server_test.cc hammers exactly this).
#ifndef NETCLUS_SERVER_EPOCH_MANAGER_H_
#define NETCLUS_SERVER_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "server/snapshot.h"

namespace netclus {

/// \brief Publishes immutable epochs to concurrent readers; a retired
/// epoch is freed when its last reader lets go. All methods are
/// thread-safe.
class EpochManager {
 public:
  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// The current snapshot (null before the first Publish). The returned
  /// shared_ptr is the reader's pin: the epoch stays alive, byte-stable,
  /// for as long as the caller holds it.
  std::shared_ptr<const EpochSnapshot> Current() const NETCLUS_EXCLUDES(mu_);

  /// Wraps the next world in a snapshot with the next monotone epoch id
  /// and makes it current, retiring the predecessor. Returns the new
  /// epoch id (first publish returns 1). `cache` becomes the snapshot's
  /// distance cache (null = no memoization); since cache keys are
  /// ObjectId pairs the publisher may pass the previous epoch's cache
  /// when the metric is unchanged, and must pass a fresh one otherwise.
  /// `ids` is the epoch's ObjectId <-> dense-PointId map (null =
  /// identity).
  uint64_t Publish(std::shared_ptr<const FrozenGraph> graph,
                   std::shared_ptr<const ClusterOutput> clusters,
                   std::shared_ptr<const DistanceCache> cache = nullptr,
                   std::shared_ptr<const IdentityMap> ids = nullptr)
      NETCLUS_EXCLUDES(mu_);

  /// Replaces the current snapshot by one serving `graph` under the
  /// same epoch id, with the same clusters, cache and identity map, and
  /// retires the old one like Publish does. `graph` must share the
  /// current graph's adjacency and points (the same world, e.g. now
  /// carrying landmark tables), so every answer stays the same bits.
  void Republish(std::shared_ptr<const FrozenGraph> graph)
      NETCLUS_EXCLUDES(mu_);

  /// Current epoch id; 0 before the first Publish.
  uint64_t current_epoch() const NETCLUS_EXCLUDES(mu_);
  /// Snapshots made current, by Publish and Republish both.
  uint64_t epochs_published() const {
    return published_.load(std::memory_order_acquire);
  }
  /// Retired snapshots actually destroyed (the test-visible free signal).
  uint64_t epochs_drained() const {
    return freed_->load(std::memory_order_acquire);
  }
  /// Retired snapshots still held by a reader: published − drained − 1.
  size_t retired_count() const NETCLUS_EXCLUDES(mu_);

 private:
  // Rank kEpochManager: above the serving queues (a worker has released
  // queue_mu_ before it takes the current epoch) and below the distance
  // cache. Only a pointer copy or swap runs under it. Rationale:
  // DESIGN.md §14.
  mutable Mutex mu_{lock_rank::kEpochManager, "EpochManager::mu_"};
  std::shared_ptr<const EpochSnapshot> current_ NETCLUS_GUARDED_BY(mu_);
  /// The last epoch id Publish handed out.
  uint64_t last_epoch_ NETCLUS_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> published_{0};
  /// Shared with every snapshot so destruction after the manager dies
  /// still has somewhere to record itself.
  std::shared_ptr<std::atomic<uint64_t>> freed_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_EPOCH_MANAGER_H_
