// Per-epoch translation between durable ObjectIds and the epoch's dense
// PointIds.
//
// The live world allocates one ObjectId per object (point or edge) when
// it first appears and never reuses it; every epoch publish renumbers
// the dense PointIds (PointSetBuilder sorts points by edge and offset),
// so the same object generally carries a different PointId in every
// epoch. The first epoch's map is built from its point records; every
// later one is carried from its predecessor's through the merge's
// renumbering (Carry: run copies between the added points' dense ids,
// and each stored PointId v moved to v + #{added points ahead of it};
// graph/renumbering.h), so a publish never rescans the world's records
// and gathers through no per-point table.
// The IdentityMap is the ONE place that crossing happens:
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

#include "graph/renumbering.h"
#include "graph/types.h"

namespace netclus {

/// \brief Immutable bidirectional ObjectId <-> dense-PointId map for one
/// epoch. Built once by the publisher, then shared read-only with every
/// reader of the snapshot (safe to use concurrently).
class IdentityMap {
 public:
  IdentityMap() = default;

  /// `object_of_point[p]` is the ObjectId of this epoch's dense point
  /// `p`. Entries must be unique and below `num_objects`, the watermark
  /// that counts every object ever admitted, so the reverse table is a
  /// plain vector indexed by ObjectId, `num_objects` long;
  /// kInvalidObjectId entries get no reverse mapping.
  IdentityMap(std::vector<ObjectId> object_of_point, size_t num_objects)
      : object_of_point_(std::move(object_of_point)),
        point_of_object_(num_objects, kInvalidPointId) {
    for (size_t p = 0; p < object_of_point_.size(); ++p) {
      if (object_of_point_[p] != kInvalidObjectId) {
        point_of_object_[static_cast<size_t>(object_of_point_[p])] =
            static_cast<PointId>(p);
      }
    }
  }

  /// The map of the epoch whose points merge new points into `base`'s:
  /// `added` is the merge's renumbering of the dense ids
  /// (PointSetMerge::points), and `added_oids[j]` the ObjectId of its
  /// j-th added point, in [base's watermark, `num_objects`). Equal to the
  /// map built from the merged epoch's records, in one pass of run
  /// copies over the dense table and one remap of the reverse one; no
  /// table indexed by base PointId is built.
  static IdentityMap Carry(const IdentityMap& base, const Renumbering& added,
                           const std::vector<ObjectId>& added_oids,
                           size_t num_objects) {
    IdentityMap next;
    const std::vector<ObjectId>& from = base.object_of_point_;
    std::vector<ObjectId>& to = next.object_of_point_;
    to.reserve(from.size() + added.size());
    added.ForEachRun(
        from.size(),
        [&](size_t q, size_t, size_t n) {
          to.insert(to.end(), from.begin() + q, from.begin() + q + n);
        },
        [&](size_t j, size_t) { to.push_back(added_oids[j]); });

    // Every object that was a point stays one, moved past the points
    // added ahead of it; the rest (edges, and ids beyond the base) stay
    // unmapped until the added points claim theirs.
    const std::vector<PointId>& back = base.point_of_object_;
    next.point_of_object_.resize(num_objects, kInvalidPointId);
    added.RemapAll(back.data(), back.size(), next.point_of_object_.data(),
                   kInvalidPointId);
    for (size_t j = 0; j < added.size(); ++j) {
      next.point_of_object_[static_cast<size_t>(added_oids[j])] =
          added.inserted()[j];
    }
    return next;
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

  /// True when both maps translate every ObjectId and every PointId
  /// alike, reverse tables compared as long as the longer one.
  bool SameMappingAs(const IdentityMap& other) const {
    if (object_of_point_ != other.object_of_point_) return false;
    const size_t n =
        std::max(point_of_object_.size(), other.point_of_object_.size());
    for (size_t oid = 0; oid < n; ++oid) {
      if (PointOf(oid) != other.PointOf(oid)) return false;
    }
    return true;
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
