#include "graph/network.h"

#include <algorithm>
#include <cstring>
#include <queue>

namespace netclus {

Network::Network(NodeId num_nodes) : adj_(num_nodes) {}

Status Network::AddEdge(NodeId a, NodeId b, double w) {
  if (a >= num_nodes() || b >= num_nodes()) {
    return Status::InvalidArgument("AddEdge: node id out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("AddEdge: self loops are not allowed");
  }
  if (!IsEdgeWeightInDomain(w)) {
    return Status::InvalidArgument(
        "AddEdge: weight must be positive and below 2^28");
  }
  // Duplicate detection scans the sparser endpoint's adjacency row —
  // O(min degree), matching the lookup path now that the edge-weight
  // hash table is gone.
  const std::vector<std::pair<NodeId, double>>& row =
      adj_[a].size() <= adj_[b].size() ? adj_[a] : adj_[b];
  const NodeId other = adj_[a].size() <= adj_[b].size() ? b : a;
  for (const auto& [m, mw] : row) {
    (void)mw;
    if (m == other) {
      return Status::InvalidArgument("AddEdge: duplicate edge");
    }
  }
  adj_[a].emplace_back(b, w);
  adj_[b].emplace_back(a, w);
  ++num_edges_;
  return Status::OK();
}

double Network::EdgeWeight(NodeId a, NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes() || a == b) return -1.0;
  const std::vector<std::pair<NodeId, double>>& row =
      adj_[a].size() <= adj_[b].size() ? adj_[a] : adj_[b];
  const NodeId other = adj_[a].size() <= adj_[b].size() ? b : a;
  for (const auto& [m, w] : row) {
    if (m == other) return w;
  }
  return -1.0;
}

std::vector<Edge> Network::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const auto& [v, w] : adj_[u]) {
      if (u < v) out.push_back(Edge{u, v, w});
    }
  }
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return out;
}

bool Network::IsConnected() const {
  if (num_nodes() == 0) return true;
  std::vector<bool> seen(num_nodes(), false);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = true;
  NodeId visited = 1;
  while (!q.empty()) {
    NodeId n = q.front();
    q.pop();
    for (const auto& [m, w] : adj_[n]) {
      (void)w;
      if (!seen[m]) {
        seen[m] = true;
        ++visited;
        q.push(m);
      }
    }
  }
  return visited == num_nodes();
}

std::pair<PointId, uint32_t> PointSet::EdgePointRange(NodeId a,
                                                      NodeId b) const {
  const uint64_t key = EdgeKeyOf(a, b);
  auto it = std::partition_point(
      groups_.begin(), groups_.end(),
      [key](const Group& g) { return EdgeKeyOf(g.u, g.v) < key; });
  if (it == groups_.end() || EdgeKeyOf(it->u, it->v) != key) {
    return {kInvalidPointId, 0};
  }
  return {it->first, it->count};
}

bool PointSet::BitIdenticalTo(const PointSet& other) const {
  if (offsets_.size() != other.offsets_.size() ||
      groups_.size() != other.groups_.size()) {
    return false;
  }
  // Offsets compare by bit pattern, not operator==: the merged set must
  // be byte-for-byte the full build's, -0.0 vs 0.0 included.
  if (!offsets_.empty() &&
      std::memcmp(offsets_.data(), other.offsets_.data(),
                  offsets_.size() * sizeof(double)) != 0) {
    return false;
  }
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& x = groups_[i];
    const Group& y = other.groups_[i];
    if (x.u != y.u || x.v != y.v || x.first != y.first ||
        x.count != y.count) {
      return false;
    }
  }
  return labels_ == other.labels_ && group_of_ == other.group_of_;
}

void PointSetBuilder::Add(NodeId a, NodeId b, double offset_from_min,
                          int label) {
  raw_.push_back(Raw{EdgeKeyOf(a, b), offset_from_min, label,
                     static_cast<uint32_t>(raw_.size())});
}

Result<PointSet> PointSetBuilder::Build(
    const Network& net, std::vector<PointId>* raw_to_final) && {
  return std::move(*this).MergeInto(net, PointSet(), nullptr, raw_to_final);
}

Result<PointSet> PointSetBuilder::Merge(const Network& net,
                                        const PointSet& base,
                                        PointSetMerge* merge) && {
  return std::move(*this).MergeInto(net, base, merge, nullptr);
}

Result<PointSet> PointSetBuilder::MergeInto(
    const Network& net, const PointSet& base, PointSetMerge* merge,
    std::vector<PointId>* raw_to_final) && {
  for (const Raw& r : raw_) {
    double w = net.EdgeWeight(EdgeKeyU(r.edge_key), EdgeKeyV(r.edge_key));
    if (w < 0.0) {
      return Status::InvalidArgument("PointSet: point on non-existent edge");
    }
    // Written so NaN fails the test: it compares false both ways.
    if (!(r.offset >= 0.0 && r.offset <= w)) {
      return Status::InvalidArgument("PointSet: offset outside edge");
    }
  }
  std::stable_sort(raw_.begin(), raw_.end(), [](const Raw& a, const Raw& b) {
    return a.edge_key != b.edge_key ? a.edge_key < b.edge_key
                                    : a.offset < b.offset;
  });
  size_t raw_keys = 0;
  for (size_t i = 0; i < raw_.size(); ++i) {
    if (i == 0 || raw_[i].edge_key != raw_[i - 1].edge_key) ++raw_keys;
  }

  PointSet ps;
  const size_t total = base.offsets_.size() + raw_.size();
  ps.offsets_.reserve(total);
  ps.labels_.reserve(total);
  ps.group_of_.reserve(total);
  ps.groups_.reserve(base.groups_.size() + raw_keys);
  if (merge != nullptr) *merge = PointSetMerge();
  if (raw_to_final != nullptr) {
    raw_to_final->assign(raw_.size(), kInvalidPointId);
  }

  // Appends one point, opening a new group when its edge differs from
  // the last group's.
  auto append = [&ps](uint64_t key, double offset, int label) {
    const PointId id = static_cast<PointId>(ps.offsets_.size());
    if (ps.groups_.empty() ||
        EdgeKeyOf(ps.groups_.back().u, ps.groups_.back().v) != key) {
      ps.groups_.push_back(
          PointSet::Group{EdgeKeyU(key), EdgeKeyV(key), id, 0});
    }
    ++ps.groups_.back().count;
    ps.group_of_.push_back(static_cast<uint32_t>(ps.groups_.size() - 1));
    ps.offsets_.push_back(offset);
    ps.labels_.push_back(label);
    return id;
  };
  size_t r = 0;
  auto append_raw = [&]() {
    const Raw& x = raw_[r++];
    const PointId id = append(x.edge_key, x.offset, x.label);
    if (merge != nullptr) {
      merge->points.Append(id);
      merge->added_order.push_back(x.raw_index);
    }
    if (raw_to_final != nullptr) (*raw_to_final)[x.raw_index] = id;
  };
  // Copies base groups [g0, g1) whole: no added point lands on their
  // edges, so their points keep their order and all shift by the same
  // number of ids (and their groups by the same number of groups).
  auto copy_groups = [&](size_t g0, size_t g1) {
    if (g0 == g1) return;
    const PointId p0 = base.groups_[g0].first;
    const PointId p1 = base.groups_[g1 - 1].first + base.groups_[g1 - 1].count;
    const PointId point_shift = ps.size() - p0;
    const uint32_t group_shift = static_cast<uint32_t>(ps.groups_.size() - g0);
    ps.offsets_.insert(ps.offsets_.end(), base.offsets_.begin() + p0,
                       base.offsets_.begin() + p1);
    ps.labels_.insert(ps.labels_.end(), base.labels_.begin() + p0,
                      base.labels_.begin() + p1);
    const size_t at = ps.group_of_.size();
    ps.group_of_.insert(ps.group_of_.end(), base.group_of_.begin() + p0,
                        base.group_of_.begin() + p1);
    uint32_t* group_of = ps.group_of_.data() + at;
    for (size_t i = 0; i < p1 - p0; ++i) group_of[i] += group_shift;
    const size_t first_group = ps.groups_.size();
    ps.groups_.insert(ps.groups_.end(), base.groups_.begin() + g0,
                      base.groups_.begin() + g1);
    PointSet::Group* moved = ps.groups_.data() + first_group;
    for (size_t i = 0; i < g1 - g0; ++i) moved[i].first += point_shift;
  };

  // One pass in edge-key order. Base groups before the next added
  // point's edge copy whole; a base group sharing that edge merges
  // point by point, the base point first on equal offsets (an added
  // point goes ahead only when strictly smaller) — exactly where a
  // stable sort of base-then-added would put it.
  const size_t num_groups = base.groups_.size();
  size_t g = 0;
  while (r < raw_.size()) {
    const uint64_t key = raw_[r].edge_key;
    const size_t run_end = static_cast<size_t>(
        std::partition_point(base.groups_.begin() + g, base.groups_.end(),
                             [key](const PointSet::Group& bg) {
                               return EdgeKeyOf(bg.u, bg.v) < key;
                             }) -
        base.groups_.begin());
    copy_groups(g, run_end);
    g = run_end;
    if (g < num_groups && EdgeKeyOf(base.groups_[g].u, base.groups_[g].v) ==
                              key) {
      PointId p = base.groups_[g].first;
      const PointId end = p + base.groups_[g].count;
      while (p < end || (r < raw_.size() && raw_[r].edge_key == key)) {
        if (r < raw_.size() && raw_[r].edge_key == key &&
            (p == end || raw_[r].offset < base.offsets_[p])) {
          append_raw();
          continue;
        }
        append(key, base.offsets_[p], base.labels_[p]);
        ++p;
      }
      ++g;
    } else {
      // No base point on this edge: its added points open a group.
      if (merge != nullptr) {
        merge->groups.Append(static_cast<uint32_t>(ps.groups_.size()));
      }
      while (r < raw_.size() && raw_[r].edge_key == key) append_raw();
    }
  }
  copy_groups(g, num_groups);
  return ps;
}

void InMemoryNetworkView::ForEachNeighbor(
    NodeId n, const std::function<void(NodeId, double)>& fn) const {
  for (const auto& [m, w] : net_.neighbors(n)) fn(m, w);
}

void InMemoryNetworkView::GetEdgePoints(NodeId a, NodeId b,
                                        std::vector<EdgePoint>* out) const {
  out->clear();
  auto [first, count] = points_.EdgePointRange(a, b);
  for (uint32_t i = 0; i < count; ++i) {
    out->push_back(EdgePoint{first + i, points_.offset(first + i)});
  }
}

void InMemoryNetworkView::ForEachPointGroup(
    const std::function<void(NodeId, NodeId, PointId, uint32_t)>& fn) const {
  for (size_t i = 0; i < points_.num_groups(); ++i) {
    const PointSet::Group& g = points_.group(i);
    fn(g.u, g.v, g.first, g.count);
  }
}

}  // namespace netclus
