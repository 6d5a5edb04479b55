// EdgePointReader: the points of one edge, for the traversal algorithms.
//
// Every algorithm of the paper reads the points on each edge it crosses
// (Section 4.1 stores them together, sorted by offset). The reader
// serves those reads from the traversal graph: over a FrozenGraph
// snapshot, from the PointSet it co-owns — a slice of the flat
// per-point offset array, no copy, no virtual call, no hash lookup; the
// snapshot's per-slot handle names the edge's group, and the group
// gives the range. Over a NetworkView,
// through GetEdgePoints / ForEachPointGroup — for a disk-backed view
// these are the paged point-file reads the Section 5.2 experiments
// count. The graph type picks the source at compile time, and both
// present the same shape, so algorithm code is written once.
#ifndef NETCLUS_GRAPH_EDGE_POINTS_H_
#define NETCLUS_GRAPH_EDGE_POINTS_H_

#include <type_traits>
#include <vector>

#include "common/check.h"
#include "graph/frozen_graph.h"
#include "graph/network.h"
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

/// \brief Reads edge points from the traversal graph: the PointSet of a
/// FrozenGraph, or GetEdgePoints / ForEachPointGroup of a NetworkView.
///
/// A span returned by Get() stays valid until the next Get() on the
/// same reader. Not thread-safe: one reader per traversal.
template <typename Graph>
class EdgePointReader {
  static constexpr bool kSnapshot = std::is_same_v<Graph, FrozenGraph>;

 public:
  explicit EdgePointReader(const Graph& graph) : graph_(graph) {
    if constexpr (kSnapshot) {
      NETCLUS_DCHECK(graph.has_point_layer())
          << "traversal snapshot carries no points";
      offsets_base_ = graph.points().offsets().data();
    }
  }

  /// Points on edge {a, b}; empty when the edge holds none.
  EdgePointSpan Get(NodeId a, NodeId b) {
    if constexpr (kSnapshot) {
      auto [first, count] = graph_.EdgePointRange(a, b);
      return count == 0 ? EdgePointSpan{}
                        : EdgePointSpan{first, count, offsets_base_ + first};
    } else {
      graph_.GetEdgePoints(a, b, &pts_);
      return FromBuffer();
    }
  }

  /// Invokes fn(u, v, weight, span) for every point-bearing edge in
  /// point-id order — the "single scan on the points file" of the
  /// k-medoids assignment phase. Over a disk-backed view a failed read
  /// yields weight -1 and an empty span; the view's status() has it.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) {
    if constexpr (kSnapshot) {
      const PointSet& points = graph_.points();
      for (size_t i = 0; i < points.num_groups(); ++i) {
        const PointSet::Group& g = points.group(i);
        fn(g.u, g.v, graph_.group_weight(i),
           EdgePointSpan{g.first, g.count, offsets_base_ + g.first});
      }
    } else {
      graph_.ForEachPointGroup([&](NodeId u, NodeId v, PointId, uint32_t) {
        const double w = graph_.EdgeWeight(u, v);
        graph_.GetEdgePoints(u, v, &pts_);
        fn(u, v, w, FromBuffer());
      });
    }
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

  const Graph& graph_;
  const double* offsets_base_ = nullptr;  // snapshot path only
  std::vector<EdgePoint> pts_;            // view path only
  std::vector<double> offsets_;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_EDGE_POINTS_H_
