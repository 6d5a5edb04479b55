#include "graph/network.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "graph/frozen_graph.h"

namespace netclus {

Network::Network(NodeId num_nodes) : adj_(num_nodes) {}

Status Network::AddEdge(NodeId a, NodeId b, double w) {
  if (a >= num_nodes() || b >= num_nodes()) {
    return Status::InvalidArgument("AddEdge: node id out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("AddEdge: self loops are not allowed");
  }
  if (!(w > 0.0) || !std::isfinite(w)) {
    return Status::InvalidArgument(
        "AddEdge: weight must be positive and finite");
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
  frozen_.reset();  // snapshot no longer reflects the adjacency
  return Status::OK();
}

double Network::EdgeWeight(NodeId a, NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes() || a == b) return -1.0;
  if (frozen_ != nullptr) return frozen_->EdgeWeight(a, b);
  // Unfrozen fallback: O(min(deg a, deg b)) adjacency scan.
  const std::vector<std::pair<NodeId, double>>& row =
      adj_[a].size() <= adj_[b].size() ? adj_[a] : adj_[b];
  const NodeId other = adj_[a].size() <= adj_[b].size() ? b : a;
  for (const auto& [m, w] : row) {
    if (m == other) return w;
  }
  return -1.0;
}

std::shared_ptr<const FrozenGraph> Network::Freeze() {
  if (frozen_ == nullptr) {
    frozen_ = std::make_shared<const FrozenGraph>(
        FrozenGraph::FromAdjacency(adj_));
  }
  return frozen_;
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

Network Network::LargestComponent(const Network& g,
                                  std::vector<NodeId>* old_to_new) {
  NodeId n = g.num_nodes();
  std::vector<int> comp(n, -1);
  int num_comps = 0;
  std::vector<NodeId> comp_size;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    int c = num_comps++;
    comp_size.push_back(0);
    std::queue<NodeId> q;
    q.push(s);
    comp[s] = c;
    while (!q.empty()) {
      NodeId x = q.front();
      q.pop();
      ++comp_size[c];
      for (const auto& [y, w] : g.adj_[x]) {
        (void)w;
        if (comp[y] < 0) {
          comp[y] = c;
          q.push(y);
        }
      }
    }
  }
  int best = 0;
  for (int c = 1; c < num_comps; ++c) {
    if (comp_size[c] > comp_size[best]) best = c;
  }
  std::vector<NodeId> mapping(n, kInvalidNodeId);
  NodeId next = 0;
  for (NodeId x = 0; x < n; ++x) {
    if (comp[x] == best) mapping[x] = next++;
  }
  Network out(next);
  for (NodeId x = 0; x < n; ++x) {
    for (const auto& [y, w] : g.adj_[x]) {
      if (x >= y) continue;  // canonical orientation: each edge once
      NodeId u = mapping[x];
      NodeId v = mapping[y];
      if (u != kInvalidNodeId && v != kInvalidNodeId) {
        Status s = out.AddEdge(u, v, w);
        (void)s;  // cannot fail: source edges were valid and unique
      }
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return out;
}

std::pair<PointId, uint32_t> PointSet::EdgePointRange(NodeId a,
                                                      NodeId b) const {
  auto it = edge_to_group_.find(EdgeKeyOf(a, b));
  if (it == edge_to_group_.end()) return {kInvalidPointId, 0};
  const Group& g = groups_[it->second];
  return {g.first, g.count};
}

void PointSetBuilder::Add(NodeId a, NodeId b, double offset_from_min,
                          int label) {
  raw_.push_back(Raw{EdgeKeyOf(a, b), offset_from_min, label,
                     static_cast<uint32_t>(raw_.size())});
}

Result<PointSet> PointSetBuilder::Build(const Network& net,
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
  PointSet ps;
  ps.offsets_.reserve(raw_.size());
  ps.labels_.reserve(raw_.size());
  ps.group_of_.reserve(raw_.size());
  for (size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    if (ps.groups_.empty() || ps.groups_.back().u != EdgeKeyU(r.edge_key) ||
        ps.groups_.back().v != EdgeKeyV(r.edge_key)) {
      PointSet::Group g;
      g.u = EdgeKeyU(r.edge_key);
      g.v = EdgeKeyV(r.edge_key);
      g.first = static_cast<PointId>(i);
      g.count = 0;
      ps.edge_to_group_.emplace(r.edge_key,
                                static_cast<uint32_t>(ps.groups_.size()));
      ps.groups_.push_back(g);
    }
    ++ps.groups_.back().count;
    ps.group_of_.push_back(static_cast<uint32_t>(ps.groups_.size() - 1));
    ps.offsets_.push_back(r.offset);
    ps.labels_.push_back(r.label);
  }
  if (raw_to_final != nullptr) {
    raw_to_final->assign(raw_.size(), kInvalidPointId);
    for (size_t i = 0; i < raw_.size(); ++i) {
      (*raw_to_final)[raw_[i].raw_index] = static_cast<PointId>(i);
    }
  }
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
