#include "graph/frozen_graph.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/check.h"
#include "graph/landmarks.h"
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
  if (slot == SIZE_MAX || handle_->slot_group[slot] == 0) {
    return {kInvalidPointId, 0};
  }
  const PointSet::Group& g = points_->group(handle_->slot_group[slot] - 1);
  return {g.first, g.count};
}

void FrozenGraph::AttachGroup(uint32_t g, PointHandle* handle) const {
  const PointSet::Group& pg = points_->group(g);
  const size_t su = SlotOf(pg.u, pg.v);
  const size_t sv = SlotOf(pg.v, pg.u);
  if (su != SIZE_MAX) handle->slot_group[su] = g + 1;
  if (sv != SIZE_MAX) handle->slot_group[sv] = g + 1;
  // The group's weight is its CSR slot's weight, the very double
  // EdgeWeight(u, v) returns.
  handle->group_weight[g] = su == SIZE_MAX ? -1.0 : adj_->weights[su];
}

FrozenGraph FrozenGraph::Materialize(const Network& net,
                                     std::shared_ptr<const PointSet> points) {
  NETCLUS_CHECK(points != nullptr) << "a snapshot needs its PointSet";
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
  g.points_ = std::move(points);
  auto handle = std::make_shared<PointHandle>();
  handle->slot_group.assign(g.num_half_edges(), 0);
  handle->group_weight.resize(g.points_->num_groups());
  for (size_t i = 0; i < g.points_->num_groups(); ++i) {
    g.AttachGroup(static_cast<uint32_t>(i), handle.get());
  }
  g.handle_ = std::move(handle);
  return g;
}

FrozenGraph FrozenGraph::WithPoints(std::shared_ptr<const PointSet> points,
                                    const Renumbering& opened) const {
  NETCLUS_CHECK(points != nullptr) << "a snapshot needs its PointSet";
  FrozenGraph g;
  g.adj_ = adj_;
  g.landmarks_ = landmarks_;
  g.points_ = std::move(points);
  const PointSet& base = *points_;
  const PointSet& next = *g.points_;
  const size_t base_groups = base.num_groups();
  // Groups only ever gain points, never vanish, so the merged set holds
  // every base group, in order, with the opened ones between them.
  NETCLUS_CHECK(next.num_groups() == base_groups + opened.size())
      << "WithPoints: the merged PointSet lacks a group of the snapshot's";
#if NETCLUS_DCHECK_IS_ON()
  for (size_t b = 0; b < base_groups; ++b) {
    const PointSet::Group& ng = next.group(opened.Remap(b));
    NETCLUS_DCHECK(base.group(b).u == ng.u && base.group(b).v == ng.v)
        << "WithPoints: the merged PointSet lacks a group of the snapshot's";
  }
#endif
  if (opened.empty()) {
    // Every slot names the group it named before.
    g.handle_ = handle_;
    return g;
  }

  // The base groups' weights in runs between the opened groups, and
  // every slot's 1 + group index moved past the groups opened ahead of
  // it (0, no group, stays 0); only the opened groups' edges are looked
  // up in their rows.
  auto handle = std::make_shared<PointHandle>();
  handle->group_weight.resize(next.num_groups());
  const double* weight_from = handle_->group_weight.data();
  double* weight_to = handle->group_weight.data();
  opened.ForEachRun(
      base_groups,
      [&](size_t q, size_t f, size_t n) {
        std::copy(weight_from + q, weight_from + q + n, weight_to + f);
      },
      [](size_t, size_t) {});
  const size_t half_edges = num_half_edges();
  handle->slot_group.resize(half_edges);
  opened.Shifted(1).RemapAll(handle_->slot_group.data(), half_edges,
                             handle->slot_group.data(), 0);
  for (uint32_t i : opened.inserted()) g.AttachGroup(i, handle.get());
  g.handle_ = std::move(handle);
  return g;
}

FrozenGraph FrozenGraph::WithEdges(const std::vector<Edge>& added) const {
  const NodeId n = num_nodes();
  // The new half-edge slots by row, each row's in the order AddEdge
  // appended them.
  struct NewSlot {
    NodeId row;
    NodeId neighbor;
    double weight;
  };
  std::vector<NewSlot> slots;
  slots.reserve(2 * added.size());
  for (const Edge& e : added) {
    NETCLUS_CHECK(e.u < n && e.v < n && e.u != e.v)
        << "WithEdges: edge {" << e.u << ", " << e.v
        << "} does not join two nodes of a " << n << "-node snapshot";
    slots.push_back(NewSlot{e.u, e.v, e.weight});
    slots.push_back(NewSlot{e.v, e.u, e.weight});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const NewSlot& a, const NewSlot& b) {
                     return a.row < b.row;
                   });

  const Adjacency& from = *adj_;
  const PointHandle& from_handle = *handle_;
  const size_t half_edges = from.neighbors.size() + slots.size();
  // Every table is built by appending, so each entry is written once.
  auto adj = std::make_shared<Adjacency>();
  adj->offsets.reserve(from.offsets.size());
  adj->neighbors.reserve(half_edges);
  adj->weights.reserve(half_edges);
  auto handle = std::make_shared<PointHandle>();
  handle->slot_group.reserve(half_edges);
  handle->group_weight = from_handle.group_weight;

  // Row i starts later by the new slots of rows < i: k of them for the
  // rows after the k-th new slot's row, up to and including the next's.
  const uint32_t* from_offsets = from.offsets.data();
  size_t row = 0;
  for (size_t k = 0; k <= slots.size(); ++k) {
    const size_t last = k < slots.size() ? slots[k].row : n;
    const uint32_t shift = static_cast<uint32_t>(k);
    for (; row <= last; ++row) {
      adj->offsets.push_back(from_offsets[row] + shift);
    }
  }

  // The base slots in runs up to the end of each new slot's row, each
  // new slot after its run.
  size_t src = 0;
  auto copy_run = [&](size_t end) {
    adj->neighbors.insert(adj->neighbors.end(), from.neighbors.begin() + src,
                          from.neighbors.begin() + end);
    adj->weights.insert(adj->weights.end(), from.weights.begin() + src,
                        from.weights.begin() + end);
    handle->slot_group.insert(handle->slot_group.end(),
                              from_handle.slot_group.begin() + src,
                              from_handle.slot_group.begin() + end);
    src = end;
  };
  for (const NewSlot& slot : slots) {
    copy_run(from_offsets[slot.row + 1]);
    adj->neighbors.push_back(slot.neighbor);
    adj->weights.push_back(slot.weight);
    // A new edge holds none of these points.
    handle->slot_group.push_back(0);
  }
  copy_run(from.neighbors.size());

  FrozenGraph g;
  g.adj_ = std::move(adj);
  g.points_ = points_;
  g.handle_ = std::move(handle);
  return g;
}

FrozenGraph FrozenGraph::WithLandmarks(
    std::shared_ptr<const LandmarkTables> tables) const {
  NETCLUS_CHECK(tables == nullptr || tables->num_nodes() == num_nodes())
      << "landmark tables of another graph";
  FrozenGraph g = *this;
  g.landmarks_ = std::move(tables);
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
  const bool same_handle =
      handle_ == other.handle_ ||
      (handle_ != nullptr && other.handle_ != nullptr &&
       handle_->slot_group == other.handle_->slot_group &&
       SameBits(handle_->group_weight, other.handle_->group_weight));
  return same_adjacency && same_points && same_handle;
}

Result<FrozenGraph> InMemoryNetworkView::Freeze() const {
  // A copy of the view's points, so the snapshot outlives the view.
  return FrozenGraph::Materialize(net_,
                                  std::make_shared<const PointSet>(points_));
}

}  // namespace netclus
