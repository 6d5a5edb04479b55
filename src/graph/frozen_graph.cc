#include "graph/frozen_graph.h"

#include <cstring>

#include "graph/network.h"

namespace netclus {

size_t FrozenGraph::SlotOf(NodeId a, NodeId b) const {
  const uint32_t first = offsets_[a];
  const uint32_t last = offsets_[a + 1];
  for (uint32_t i = first; i < last; ++i) {
    if (neighbors_[i] == b) return i;
  }
  return SIZE_MAX;
}

double FrozenGraph::EdgeWeight(NodeId a, NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes()) return -1.0;
  // Scan the smaller row: undirected edges appear in both rows with the
  // same weight.
  if (degree(b) < degree(a)) std::swap(a, b);
  size_t slot = SlotOf(a, b);
  return slot == SIZE_MAX ? -1.0 : weights_[slot];
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

void FrozenGraph::AttachPoints(const PointSet& points) {
  const size_t half_edges = neighbors_.size();
  pt_first_.assign(half_edges, kInvalidPointId);
  pt_count_.assign(half_edges, 0);
  // Offsets and the group table copied straight from the PointSet; each
  // group's weight is its CSR slot's weight, the very double
  // EdgeWeight(u, v) returns.
  pt_offset_.resize(points.size());
  for (PointId p = 0; p < points.size(); ++p) {
    pt_offset_[p] = points.offset(p);
  }
  groups_.resize(points.num_groups());
  for (size_t i = 0; i < points.num_groups(); ++i) {
    const PointSet::Group& pg = points.group(i);
    size_t su = SetEdgePoints(pg.u, pg.v, pg.first, pg.count);
    groups_[i] = PointGroup{pg.u, pg.v, pg.first, pg.count,
                            su == SIZE_MAX ? -1.0 : weights_[su]};
  }
}

FrozenGraph FrozenGraph::Materialize(const InMemoryNetworkView& view) {
  const Network& net = view.network();
  const NodeId n = net.num_nodes();
  FrozenGraph g;
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    g.offsets_[i + 1] =
        g.offsets_[i] + static_cast<uint32_t>(net.neighbors(i).size());
  }
  g.neighbors_.resize(g.offsets_[n]);
  g.weights_.resize(g.offsets_[n]);
  // Each row in the network's iteration order — the order that keeps
  // frozen traversals bit-identical to live ones.
  for (NodeId i = 0; i < n; ++i) {
    uint32_t slot = g.offsets_[i];
    for (const auto& [m, w] : net.neighbors(i)) {
      g.neighbors_[slot] = m;
      g.weights_[slot] = w;
      ++slot;
    }
  }
  g.AttachPoints(view.points());
  return g;
}

FrozenGraph FrozenGraph::MaterializeIncremental(
    const InMemoryNetworkView& view, const FrozenGraph& prev,
    const std::vector<char>& dirty) {
  const Network& net = view.network();
  const NodeId n = net.num_nodes();
  if (prev.num_nodes() != n || dirty.size() != static_cast<size_t>(n)) {
    // Nothing safe to splice from: the node space itself moved (or the
    // dirty set does not describe it). Full rebuild.
    return Materialize(view);
  }
  FrozenGraph g;
  g.offsets_.assign(static_cast<size_t>(n) + 1, 0);

  // Pass 1: degrees. A clean row's degree is already known from prev;
  // only dirty rows read the network.
  for (NodeId i = 0; i < n; ++i) {
    const uint32_t deg =
        dirty[i] != 0 ? static_cast<uint32_t>(net.neighbors(i).size())
                      : prev.degree(i);
    g.offsets_[i + 1] = g.offsets_[i] + deg;
  }

  const size_t half_edges = g.offsets_[n];
  g.neighbors_.resize(half_edges);
  g.weights_.resize(half_edges);

  // Pass 2: each maximal run of clean rows splices its (neighbor,
  // weight) spans verbatim out of the retiring snapshot with one
  // memcpy per array (one in all when no row is dirty) — unchanged
  // rows keep their iteration order in the view and sit contiguously
  // in both snapshots, so the bytes are identical to what a full
  // Materialize would produce. Dirty rows refill from the network.
  for (NodeId i = 0; i < n;) {
    if (dirty[i] == 0) {
      NodeId run_end = i + 1;
      while (run_end < n && dirty[run_end] == 0) ++run_end;
      const uint32_t slot = g.offsets_[i];
      const uint32_t prev_first = prev.offsets_[i];
      const size_t count = prev.offsets_[run_end] - prev_first;
      if (count > 0) {
        std::memcpy(g.neighbors_.data() + slot,
                    prev.neighbors_.data() + prev_first,
                    count * sizeof(NodeId));
        std::memcpy(g.weights_.data() + slot,
                    prev.weights_.data() + prev_first,
                    count * sizeof(double));
      }
      i = run_end;
      continue;
    }
    uint32_t slot = g.offsets_[i];
    for (const auto& [m, w] : net.neighbors(i)) {
      g.neighbors_[slot] = m;
      g.weights_[slot] = w;
      ++slot;
    }
    ++i;
  }

  // Point ranges and the point layer always rebuild: every publish
  // renumbers dense point ids, so no prior epoch's ranges can be reused.
  g.AttachPoints(view.points());
  return g;
}

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SamePointGroups(const std::vector<FrozenGraph::PointGroup>& a,
                     const std::vector<FrozenGraph::PointGroup>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].first != b[i].first ||
        a[i].count != b[i].count ||
        std::memcmp(&a[i].weight, &b[i].weight, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool FrozenGraph::BitIdenticalTo(const FrozenGraph& other) const {
  // Weights compare by bit pattern (memcmp), not operator== — the whole
  // point is that the spliced arrays are byte-for-byte the full
  // rebuild's arrays.
  return offsets_ == other.offsets_ && neighbors_ == other.neighbors_ &&
         SameBits(weights_, other.weights_) &&
         pt_first_ == other.pt_first_ && pt_count_ == other.pt_count_ &&
         SameBits(pt_offset_, other.pt_offset_) &&
         SamePointGroups(groups_, other.groups_);
}

Result<FrozenGraph> InMemoryNetworkView::Freeze() const {
  return FrozenGraph::Materialize(*this);
}

}  // namespace netclus
