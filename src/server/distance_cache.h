// Sharded LRU cache of exact point-pair network distances, the query
// server's memo for kPointDistance.
//
// The key is the unordered pair {a, b} of durable ObjectIds (distance
// is symmetric), so warm entries survive metric-preserving
// republication (see server/snapshot.h). Entries are spread over a
// power-of-two number of shards by a mixed hash of the key; each shard
// is an independent LRU list under its own mutex, so concurrent readers
// on different shards never contend (striped locking).
//
// A cache is never invalidated: its entries are exact for one metric,
// so whoever changes the metric starts a fresh cache (the world
// publishes a fresh cache when an edge is added).
//
// Hit / miss / store / eviction counters are kept per shard (under the
// shard mutex, so they cost nothing extra) and aggregated on demand by
// counters().
#ifndef NETCLUS_SERVER_DISTANCE_CACHE_H_
#define NETCLUS_SERVER_DISTANCE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace netclus {

/// \brief Thread-safe sharded LRU map from point pairs to exact distances.
class DistanceCache {
 public:
  /// Aggregated operation counters (monotonic until the cache dies).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t evictions = 0;
  };

  /// `capacity` is the total entry budget across all shards and must be
  /// positive: "no cache" is a null cache pointer, not an empty cache.
  /// `num_shards` is rounded up to a power of two.
  explicit DistanceCache(size_t capacity, uint32_t num_shards = 16);

  DistanceCache(const DistanceCache&) = delete;
  DistanceCache& operator=(const DistanceCache&) = delete;

  /// If d(a, b) is cached, writes it to `*out`, refreshes the entry's
  /// LRU position, and returns true.
  bool Lookup(uint64_t a, uint64_t b, double* out) const;

  /// Inserts (or refreshes) the exact distance d(a, b), evicting the
  /// shard's least-recently-used entry when over budget.
  void Store(uint64_t a, uint64_t b, double dist) const;

  /// Sum of all shard counters.
  Counters counters() const;

  /// Entries currently resident across all shards (test visibility).
  size_t size() const;

  size_t capacity() const { return capacity_; }

 private:
  /// Canonicalized unordered pair of 64-bit ids (lo <= hi). A full
  /// 128-bit key: packing two u64s into one word would collide once
  /// ObjectIds pass 2^32, and a colliding distance cache returns wrong
  /// distances silently.
  struct PairKey {
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool operator==(const PairKey& o) const {
      return lo == o.lo && hi == o.hi;
    }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const;
  };
  struct Entry {
    PairKey key;
    double dist = 0.0;
  };
  struct Shard {
    // All shard mutexes share one rank: a thread only ever holds one
    // shard at a time (Lookup/Store lock exactly the key's shard;
    // counters()/size() visit shards strictly one after another).
    mutable Mutex mu{lock_rank::kDistanceCacheShard, "DistanceCache::Shard::mu"};
    std::list<Entry> lru NETCLUS_GUARDED_BY(mu);  ///< front = most recent
    std::unordered_map<PairKey, std::list<Entry>::iterator, PairKeyHash> map
        NETCLUS_GUARDED_BY(mu);
    Counters counters NETCLUS_GUARDED_BY(mu);
  };

  static PairKey KeyOf(uint64_t a, uint64_t b) {
    return a < b ? PairKey{a, b} : PairKey{b, a};
  }

  Shard& ShardFor(const PairKey& key) const;

  size_t capacity_;
  size_t per_shard_capacity_ = 0;
  uint32_t shard_mask_;
  mutable std::vector<Shard> shards_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_DISTANCE_CACHE_H_
