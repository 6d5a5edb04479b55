// Fundamental identifiers and value types for spatial networks.
#ifndef NETCLUS_GRAPH_TYPES_H_
#define NETCLUS_GRAPH_TYPES_H_

#include <cstdint>
#include <utility>

namespace netclus {

/// Identifier of a network node (vertex).
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNodeId = UINT32_MAX;

/// Identifier of an object (point) lying on a network edge. Point ids are
/// assigned so that points on the same edge are consecutive and ordered by
/// ascending offset (paper Section 4.1). A PointId is DENSE and
/// EPOCH-RELATIVE: rebuilding a PointSet after mutations renumbers it.
/// Anything that crosses an epoch boundary (client APIs, the wire, the
/// distance cache) must use ObjectId instead.
using PointId = uint32_t;
inline constexpr PointId kInvalidPointId = UINT32_MAX;

/// Durable identity of an object (point) or edge, allocated monotonically
/// by the owner of the live world (the query server) and never reused.
/// An ObjectId names the same physical object across every epoch and
/// across restarts (it is persisted in WAL checkpoints); the per-epoch
/// IdentityMap translates it to that epoch's dense PointId.
using ObjectId = uint64_t;
inline constexpr ObjectId kInvalidObjectId = UINT64_MAX;

/// Canonical 64-bit key of the undirected edge {a, b} (smaller id first).
inline uint64_t EdgeKeyOf(NodeId a, NodeId b) {
  NodeId u = a < b ? a : b;
  NodeId v = a < b ? b : a;
  return (static_cast<uint64_t>(u) << 32) | v;
}

inline NodeId EdgeKeyU(uint64_t key) { return static_cast<NodeId>(key >> 32); }
inline NodeId EdgeKeyV(uint64_t key) {
  return static_cast<NodeId>(key & 0xFFFFFFFFULL);
}

/// Position of a point on the network: the triplet <u, v, offset> of
/// Definition 1, with u < v and offset measured from u along edge (u, v).
struct PointPos {
  NodeId u = kInvalidNodeId;
  NodeId v = kInvalidNodeId;
  double offset = 0.0;
};

/// A point on a specific edge, as returned by edge-local queries: its id
/// and its offset from the canonical (smaller-id) endpoint.
struct EdgePoint {
  PointId id = kInvalidPointId;
  double offset = 0.0;
};

/// Edge weights lie in (0, kMaxEdgeWeight). The bound keeps exact path
/// lengths, integer counts of 2^-64 units, and the point-to-point
/// search's heap keys inside an __int128 (graph/exact_length.h); at
/// 2^28 (268,435,456) it is far above any road-network length.
/// Network::AddEdge rejects a weight outside the domain, and the disk
/// store reports one as Corruption.
inline constexpr double kMaxEdgeWeight = 0x1p28;

/// True when `w` is a valid edge weight: positive and below
/// kMaxEdgeWeight (NaN fails both tests).
inline bool IsEdgeWeightInDomain(double w) {
  return w > 0.0 && w < kMaxEdgeWeight;
}

/// An undirected weighted edge (canonical orientation u < v).
struct Edge {
  NodeId u = kInvalidNodeId;
  NodeId v = kInvalidNodeId;
  double weight = 0.0;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_TYPES_H_
