#include "server/distance_cache.h"

#include <algorithm>

#include "common/check.h"

namespace netclus {

namespace {

uint32_t RoundUpPow2(uint32_t x) {
  if (x <= 1) return 1;
  uint32_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

// Finalizer of splitmix64: full-avalanche mix so consecutive point ids
// (the common access pattern) spread across shards.
uint64_t MixKey(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

}  // namespace

size_t DistanceCache::PairKeyHash::operator()(const PairKey& k) const {
  // Mix each half independently, then combine: full avalanche on both
  // words so neighboring ObjectIds (the common access pattern) spread.
  return static_cast<size_t>(MixKey(k.lo) ^ (MixKey(k.hi) * 0x9e3779b97f4a7c15ULL));
}

DistanceCache::DistanceCache(size_t capacity, uint32_t num_shards)
    : capacity_(capacity),
      shard_mask_(RoundUpPow2(num_shards) - 1),
      shards_(RoundUpPow2(num_shards)) {
  NETCLUS_CHECK(capacity_ > 0)
      << "a DistanceCache needs a positive capacity";
  per_shard_capacity_ = std::max<size_t>(capacity_ / shards_.size(), 1);
}

DistanceCache::Shard& DistanceCache::ShardFor(const PairKey& key) const {
  return shards_[PairKeyHash{}(key) & shard_mask_];
}

bool DistanceCache::Lookup(uint64_t a, uint64_t b, double* out) const {
  PairKey key = KeyOf(a, b);
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.counters.misses;
    return false;
  }
  // Refresh recency: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.counters.hits;
  *out = it->second->dist;
  return true;
}

void DistanceCache::Store(uint64_t a, uint64_t b, double dist) const {
  PairKey key = KeyOf(a, b);
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  ++shard.counters.stores;
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->dist = dist;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, dist});
  shard.map.emplace(key, shard.lru.begin());
  if (shard.map.size() > per_shard_capacity_) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.counters.evictions;
  }
}

DistanceCache::Counters DistanceCache::counters() const {
  Counters total;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total.hits += shard.counters.hits;
    total.misses += shard.counters.misses;
    total.stores += shard.counters.stores;
    total.evictions += shard.counters.evictions;
  }
  return total;
}

size_t DistanceCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace netclus
