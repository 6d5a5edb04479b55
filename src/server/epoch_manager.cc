#include "server/epoch_manager.h"

#include <utility>

#include "common/check.h"

namespace netclus {

EpochManager::EpochManager()
    : freed_(std::make_shared<std::atomic<uint64_t>>(0)) {}

EpochManager::~EpochManager() = default;

std::shared_ptr<const EpochSnapshot> EpochManager::Current() const {
  MutexLock lock(&mu_);
  return current_;
}

uint64_t EpochManager::Publish(std::shared_ptr<const FrozenGraph> graph,
                               std::shared_ptr<const ClusterOutput> clusters,
                               std::shared_ptr<const DistanceCache> cache,
                               std::shared_ptr<const IdentityMap> ids) {
  std::shared_ptr<const EpochSnapshot> outgoing;
  uint64_t id = 0;
  {
    MutexLock lock(&mu_);
    id = ++last_epoch_;
    published_.fetch_add(1, std::memory_order_acq_rel);
    outgoing = std::exchange(
        current_, std::make_shared<const EpochSnapshot>(
                      id, std::move(graph), std::move(clusters),
                      std::move(cache), freed_, std::move(ids)));
  }
  // Dropped here, after the lock: when no reader holds the predecessor
  // its teardown runs now, outside the critical section.
  outgoing.reset();
  return id;
}

void EpochManager::Republish(std::shared_ptr<const FrozenGraph> graph) {
  std::shared_ptr<const EpochSnapshot> outgoing;
  {
    MutexLock lock(&mu_);
    NETCLUS_CHECK(current_ != nullptr &&
                  graph->SharesAdjacencyWith(current_->frozen()) &&
                  &graph->points() == &current_->frozen().points())
        << "Republish: not the current epoch's world";
    const EpochSnapshot& cur = *current_;
    published_.fetch_add(1, std::memory_order_acq_rel);
    outgoing = std::exchange(
        current_, std::make_shared<const EpochSnapshot>(
                      cur.epoch(), std::move(graph), cur.clusters_,
                      cur.cache_, freed_, cur.ids_));
  }
  outgoing.reset();
}

uint64_t EpochManager::current_epoch() const {
  MutexLock lock(&mu_);
  return current_ == nullptr ? 0 : current_->epoch();
}

size_t EpochManager::retired_count() const {
  MutexLock lock(&mu_);
  // Under mu_ the published count and the current snapshot agree, and
  // the current snapshot is alive, so every other published epoch is
  // either drained or still held by a reader.
  const uint64_t published = published_.load(std::memory_order_acquire);
  if (published == 0) return 0;
  return static_cast<size_t>(published - epochs_drained() - 1);
}

}  // namespace netclus
