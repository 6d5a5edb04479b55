// EdgePointReader: the points of one edge, for the traversal algorithms.
//
// Every algorithm of the paper reads the points on each edge it crosses
// (Section 4.1 stores them together, sorted by offset). The reader
// serves those reads from a FrozenGraph's point layer when the snapshot
// has one — a slice of the flat per-point offset array, no copy, no
// virtual call, no hash lookup — and through NetworkView::GetEdgePoints
// / ForEachPointGroup otherwise: for a disk-backed view, whose point
// reads are the paged I/O the Section 5.2 experiments count, and for the
// live-view instantiations of the algorithms. Both sources present the
// same shape, so algorithm code is written once.
#ifndef NETCLUS_GRAPH_EDGE_POINTS_H_
#define NETCLUS_GRAPH_EDGE_POINTS_H_

#include <vector>

#include "common/check.h"
#include "graph/frozen_graph.h"
#include "graph/network_view.h"
#include "graph/types.h"

namespace netclus {

/// The points of one edge: ids [first, first + count), with offsets
/// (from the smaller-id endpoint) in offsets[0, count), ascending.
struct EdgePointSpan {
  PointId first = kInvalidPointId;
  uint32_t count = 0;
  const double* offsets = nullptr;

  bool empty() const { return count == 0; }
};

/// \brief Reads edge points from the point layer or through the view.
///
/// A span returned by Get() stays valid until the next Get() on the
/// same reader. Not thread-safe: one reader per traversal.
class EdgePointReader {
 public:
  /// Reads through the snapshot's point layer when it has one, through
  /// `view` otherwise; edge weights come from the snapshot. A null
  /// `frozen` reads everything, weights included, through `view`.
  EdgePointReader(const NetworkView& view, const FrozenGraph* frozen)
      : view_(view),
        frozen_(frozen),
        layer_(frozen != nullptr && frozen->has_point_layer()
                   ? frozen->point_offsets().data()
                   : nullptr) {}
  /// The live-view instantiations' form (the traversal graph is the view
  /// itself): everything is read through `view`.
  EdgePointReader(const NetworkView& view, const NetworkView* /*graph*/)
      : view_(view) {}

  /// Points on edge {a, b}; empty when the edge holds none.
  EdgePointSpan Get(NodeId a, NodeId b) {
    if (layer_ != nullptr) {
      auto [first, count] = frozen_->EdgePointRange(a, b);
      return count == 0 ? EdgePointSpan{}
                        : EdgePointSpan{first, count, layer_ + first};
    }
    view_.GetEdgePoints(a, b, &pts_);
    return FromBuffer();
  }

  /// Invokes fn(u, v, weight, span) for every point-bearing edge in
  /// point-id order — the "single scan on the points file" of the
  /// k-medoids assignment phase.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) {
    if (layer_ != nullptr) {
      for (const FrozenGraph::PointGroup& g : frozen_->point_groups()) {
        fn(g.u, g.v, g.weight, EdgePointSpan{g.first, g.count,
                                             layer_ + g.first});
      }
      return;
    }
    view_.ForEachPointGroup([&](NodeId u, NodeId v, PointId, uint32_t) {
      const double w = frozen_ != nullptr ? frozen_->EdgeWeight(u, v)
                                          : view_.EdgeWeight(u, v);
      view_.GetEdgePoints(u, v, &pts_);
      fn(u, v, w, FromBuffer());
    });
  }

 private:
  // Point ids on an edge are consecutive (PointSet assigns them in
  // group order), so the view's list maps onto the span shape.
  EdgePointSpan FromBuffer() {
    if (pts_.empty()) return EdgePointSpan{};
    NETCLUS_DCHECK(pts_.back().id - pts_[0].id == pts_.size() - 1)
        << "edge point ids are not consecutive";
    offsets_.resize(pts_.size());
    for (size_t i = 0; i < pts_.size(); ++i) offsets_[i] = pts_[i].offset;
    return EdgePointSpan{pts_[0].id, static_cast<uint32_t>(pts_.size()),
                         offsets_.data()};
  }

  const NetworkView& view_;
  const FrozenGraph* frozen_ = nullptr;
  const double* layer_ = nullptr;
  std::vector<EdgePoint> pts_;
  std::vector<double> offsets_;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_EDGE_POINTS_H_
