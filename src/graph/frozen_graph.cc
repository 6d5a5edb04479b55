#include "graph/frozen_graph.h"

#include <cstring>
#include <memory>
#include <utility>

#include "common/check.h"
#include "graph/network.h"

namespace netclus {

size_t FrozenGraph::SlotOf(NodeId a, NodeId b) const {
  const uint32_t first = adj_->offsets[a];
  const uint32_t last = adj_->offsets[a + 1];
  for (uint32_t i = first; i < last; ++i) {
    if (adj_->neighbors[i] == b) return i;
  }
  return SIZE_MAX;
}

double FrozenGraph::EdgeWeight(NodeId a, NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes()) return -1.0;
  // Scan the smaller row: undirected edges appear in both rows with the
  // same weight.
  if (degree(b) < degree(a)) std::swap(a, b);
  size_t slot = SlotOf(a, b);
  return slot == SIZE_MAX ? -1.0 : adj_->weights[slot];
}

std::pair<PointId, uint32_t> FrozenGraph::EdgePointRange(NodeId a,
                                                         NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes()) {
    return {kInvalidPointId, 0};
  }
  size_t slot = SlotOf(a, b);
  if (slot == SIZE_MAX || pt_first_[slot] == kInvalidPointId) {
    return {kInvalidPointId, 0};
  }
  return {pt_first_[slot], pt_count_[slot]};
}

size_t FrozenGraph::SetEdgePoints(NodeId u, NodeId v, PointId first,
                                  uint32_t count) {
  size_t su = SlotOf(u, v);
  size_t sv = SlotOf(v, u);
  if (su != SIZE_MAX) {
    pt_first_[su] = first;
    pt_count_[su] = count;
  }
  if (sv != SIZE_MAX) {
    pt_first_[sv] = first;
    pt_count_[sv] = count;
  }
  return su;
}

void FrozenGraph::AttachPoints(std::shared_ptr<const PointSet> points) {
  NETCLUS_CHECK(points != nullptr) << "a snapshot needs its PointSet";
  points_ = std::move(points);
  const size_t half_edges = num_half_edges();
  pt_first_.assign(half_edges, kInvalidPointId);
  pt_count_.assign(half_edges, 0);
  // Each group's weight is its CSR slot's weight, the very double
  // EdgeWeight(u, v) returns.
  group_weight_.resize(points_->num_groups());
  for (size_t i = 0; i < points_->num_groups(); ++i) {
    const PointSet::Group& pg = points_->group(i);
    size_t su = SetEdgePoints(pg.u, pg.v, pg.first, pg.count);
    group_weight_[i] = su == SIZE_MAX ? -1.0 : adj_->weights[su];
  }
}

FrozenGraph FrozenGraph::Materialize(const Network& net,
                                     std::shared_ptr<const PointSet> points) {
  const NodeId n = net.num_nodes();
  auto adj = std::make_shared<Adjacency>();
  adj->offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    adj->offsets[i + 1] =
        adj->offsets[i] + static_cast<uint32_t>(net.neighbors(i).size());
  }
  adj->neighbors.resize(adj->offsets[n]);
  adj->weights.resize(adj->offsets[n]);
  // Each row in the network's iteration order — the order that keeps
  // frozen traversals bit-identical to live ones.
  for (NodeId i = 0; i < n; ++i) {
    uint32_t slot = adj->offsets[i];
    for (const auto& [m, w] : net.neighbors(i)) {
      adj->neighbors[slot] = m;
      adj->weights[slot] = w;
      ++slot;
    }
  }
  FrozenGraph g;
  g.adj_ = std::move(adj);
  g.AttachPoints(std::move(points));
  return g;
}

FrozenGraph FrozenGraph::WithPoints(
    std::shared_ptr<const PointSet> points) const {
  FrozenGraph g;
  g.adj_ = adj_;
  g.AttachPoints(std::move(points));
  return g;
}

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool FrozenGraph::BitIdenticalTo(const FrozenGraph& other) const {
  // Weights compare by bit pattern (memcmp), not operator== — the whole
  // point is that a shared adjacency is byte-for-byte the one a full
  // rebuild would produce.
  const bool same_adjacency =
      adj_ == other.adj_ ||
      (adj_ != nullptr && other.adj_ != nullptr &&
       adj_->offsets == other.adj_->offsets &&
       adj_->neighbors == other.adj_->neighbors &&
       SameBits(adj_->weights, other.adj_->weights));
  const bool same_points =
      points_ == other.points_ ||
      (points_ != nullptr && other.points_ != nullptr &&
       points_->BitIdenticalTo(*other.points_));
  return same_adjacency && same_points && pt_first_ == other.pt_first_ &&
         pt_count_ == other.pt_count_ &&
         SameBits(group_weight_, other.group_weight_);
}

Result<FrozenGraph> InMemoryNetworkView::Freeze() const {
  // A copy of the view's points, so the snapshot outlives the view.
  return FrozenGraph::Materialize(net_,
                                  std::make_shared<const PointSet>(points_));
}

}  // namespace netclus
