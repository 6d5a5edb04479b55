// LandmarkTables: exact distances from a few landmark nodes to every
// node of a snapshot, the lower bounds the point-to-point search prunes
// with (Goldberg & Harrelson, SODA 2005: A*, landmarks and the triangle
// inequality, "ALT").
//
// For a landmark L and any two positions x and y on the network,
// |d(L, x) − d(L, y)| <= d(x, y) by the triangle inequality, so each
// table row bounds the distance from its node to a target from below.
// The rows hold exact lengths (graph/exact_length.h), the very integers
// the search adds, so the bounds are consistent potentials with no
// rounding slack, and a pruned search returns the same bits as one
// without tables.
//
// The tables are immutable once built and ride on a FrozenGraph
// (FrozenGraph::WithLandmarks) beside the adjacency they describe:
// snapshots that share that adjacency share them. A snapshot whose
// adjacency gained edges carries them through Carry, which shares them
// when no label improved and repairs a copy otherwise. Tables of another
// metric are not lower bounds, so they never ride on a graph they were
// not built or carried for.
#ifndef NETCLUS_GRAPH_LANDMARKS_H_
#define NETCLUS_GRAPH_LANDMARKS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/exact_length.h"
#include "graph/types.h"

namespace netclus {

class FrozenGraph;

/// \brief Exact landmark-to-node distances; see the file comment.
class LandmarkTables {
 public:
  /// Landmarks per table: eight settled about as few nodes per search
  /// as sixteen for half the build time and memory.
  static constexpr uint32_t kCount = 8;

  /// Picks kCount landmarks by farthest-point sampling (the first is the
  /// node farthest from node 0; each next one the node farthest from
  /// those chosen, an unreached node counting as farthest, ties to the
  /// smallest id) and fills their tables: 1 + kCount exact single-source
  /// searches over `graph`. Null for a graph without nodes. Bumps no
  /// traversal counter: the build is not a query's work.
  static std::shared_ptr<const LandmarkTables> Build(const FrozenGraph& graph);

  /// The tables of `landmarks` by fresh searches over `graph`: the
  /// oracle a carried table must equal.
  static std::shared_ptr<const LandmarkTables> FromLandmarks(
      const FrozenGraph& graph, const std::array<NodeId, kCount>& landmarks);

  /// `tables` carried onto `graph`, which is the graph they were built
  /// for plus the edges `added` (insert-only mutations). Per landmark
  /// and added edge {u, v, w} it tests whether T[u] + w < T[v] or the
  /// reverse; when nothing improves, `tables` itself comes back.
  /// Otherwise a copy is repaired by one decrease-only search per
  /// landmark from the improved endpoints.
  static std::shared_ptr<const LandmarkTables> Carry(
      std::shared_ptr<const LandmarkTables> tables, const FrozenGraph& graph,
      const std::vector<Edge>& added);

  const std::array<NodeId, kCount>& landmarks() const { return landmarks_; }
  NodeId num_nodes() const {
    return static_cast<NodeId>(dist_.size() / kCount);
  }

  /// Node `n`'s distances from the kCount landmarks, kUnreachedLength
  /// where a landmark does not reach it.
  const ExactLength* row(NodeId n) const {
    return dist_.data() + static_cast<size_t>(n) * kCount;
  }

  /// Heap bytes of the tables: kCount lengths per node.
  size_t bytes() const { return dist_.size() * sizeof(ExactLength); }

  /// Same landmarks and the same distances everywhere.
  bool operator==(const LandmarkTables& other) const {
    return landmarks_ == other.landmarks_ && dist_ == other.dist_;
  }

 private:
  LandmarkTables() = default;

  std::array<NodeId, kCount> landmarks_{};
  // Node-major: node n's kCount lengths at [n * kCount, (n + 1) * kCount).
  std::vector<ExactLength> dist_;
};

}  // namespace netclus

#endif  // NETCLUS_GRAPH_LANDMARKS_H_
