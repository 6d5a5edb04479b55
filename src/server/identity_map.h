// Per-epoch translation between durable ObjectIds and the epoch's dense
// PointIds.
//
// The live world allocates one ObjectId per object (point or edge) when
// it first appears and never reuses it; every epoch publish rebuilds the
// dense PointId numbering (PointSetBuilder sorts points by edge and
// offset), so the same object generally carries a different PointId in
// every epoch. The IdentityMap is the ONE place that crossing happens:
// the query layer translates request ObjectIds to this epoch's PointIds
// on the way in and translates traversal results back on the way out.
// Everything above the map (QueryRequest/QueryResponse, the wire codec,
// QueryClient, the distance cache) speaks ObjectIds exclusively —
// netclus-lint enforces that PointId never appears in those layers.
//
// A null IdentityMap* anywhere in the query layer means the identity
// mapping ObjectId == PointId, which is exact for the inline path over a
// standalone view and for a server's boot epoch (boot assigns point
// ObjectIds 0..n-1 in dense order).
#ifndef NETCLUS_SERVER_IDENTITY_MAP_H_
#define NETCLUS_SERVER_IDENTITY_MAP_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace netclus {

/// \brief Immutable bidirectional ObjectId <-> dense-PointId map for one
/// epoch. Built once by the publisher, then shared read-only with every
/// reader of the snapshot (safe to use concurrently).
class IdentityMap {
 public:
  IdentityMap() = default;

  /// `object_of_point[p]` is the ObjectId of this epoch's dense point
  /// `p`. Entries must be unique; kInvalidObjectId entries get no
  /// reverse mapping. ObjectIds come from a watermark that counts every
  /// object ever admitted, so the reverse table is a plain vector
  /// indexed by ObjectId, as long as the largest id.
  explicit IdentityMap(std::vector<ObjectId> object_of_point)
      : object_of_point_(std::move(object_of_point)) {
    size_t table_size = 0;
    for (ObjectId oid : object_of_point_) {
      if (oid != kInvalidObjectId) {
        table_size = std::max(table_size, static_cast<size_t>(oid) + 1);
      }
    }
    point_of_object_.assign(table_size, kInvalidPointId);
    for (size_t p = 0; p < object_of_point_.size(); ++p) {
      if (object_of_point_[p] != kInvalidObjectId) {
        point_of_object_[static_cast<size_t>(object_of_point_[p])] =
            static_cast<PointId>(p);
      }
    }
  }

  /// Number of dense points this epoch holds.
  PointId num_points() const {
    return static_cast<PointId>(object_of_point_.size());
  }

  /// ObjectId of dense point `p`; kInvalidObjectId when out of range.
  ObjectId ObjectOf(PointId p) const {
    return p < object_of_point_.size() ? object_of_point_[p]
                                       : kInvalidObjectId;
  }

  /// Dense point id of `oid` in this epoch; kInvalidPointId when the
  /// object is unknown (never existed, or is an edge).
  PointId PointOf(ObjectId oid) const {
    return oid < point_of_object_.size()
               ? point_of_object_[static_cast<size_t>(oid)]
               : kInvalidPointId;
  }

 private:
  std::vector<ObjectId> object_of_point_;
  std::vector<PointId> point_of_object_;
};

/// Request-side translation helper: the dense point id of `oid` under
/// `ids`, or under the identity mapping when `ids` is null (then any
/// oid < num_points passes through). Returns kInvalidPointId for an
/// unresolvable oid.
inline PointId ResolveObject(const IdentityMap* ids, ObjectId oid,
                             PointId num_points) {
  if (ids != nullptr) return ids->PointOf(oid);
  return oid < num_points ? static_cast<PointId>(oid) : kInvalidPointId;
}

/// Response-side translation helper: the ObjectId of dense point `p`
/// under `ids` (identity when null).
inline ObjectId ObjectOfPoint(const IdentityMap* ids, PointId p) {
  if (ids != nullptr) return ids->ObjectOf(p);
  return static_cast<ObjectId>(p);
}

}  // namespace netclus

#endif  // NETCLUS_SERVER_IDENTITY_MAP_H_
