#include "graph/landmarks.h"

#include <algorithm>

#include "common/check.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

constexpr uint32_t kCount = LandmarkTables::kCount;

struct Entry {
  ExactLength dist;
  NodeId node;
};

struct Greater {
  bool operator()(const Entry& a, const Entry& b) const {
    return a.dist > b.dist;
  }
};

// Dijkstra on column `col` of the node-major `dist`, from the entries of
// `heap`, whose labels are already set: a node's label only ever
// decreases. With one source at 0 over an all-unreached column it is a
// plain single-source search; over a carried column it is the repair.
void Settle(const FrozenGraph& graph, uint32_t col, ExactLength* dist,
            std::vector<Entry>* heap) {
  std::make_heap(heap->begin(), heap->end(), Greater{});
  while (!heap->empty()) {
    std::pop_heap(heap->begin(), heap->end(), Greater{});
    const Entry top = heap->back();
    heap->pop_back();
    if (top.dist > dist[static_cast<size_t>(top.node) * kCount + col]) {
      continue;  // stale entry
    }
    graph.ForEachNeighbor(top.node, [&](NodeId m, double w) {
      const ExactLength nd = top.dist + ToExact(w);
      ExactLength& dm = dist[static_cast<size_t>(m) * kCount + col];
      if (nd < dm) {
        dm = nd;
        heap->push_back(Entry{nd, m});
        std::push_heap(heap->begin(), heap->end(), Greater{});
      }
    });
  }
}

// Column `col` of `dist` := exact distances from `source`.
void SingleSource(const FrozenGraph& graph, NodeId source, uint32_t col,
                  ExactLength* dist, std::vector<Entry>* heap) {
  const NodeId n = graph.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    dist[static_cast<size_t>(v) * kCount + col] = kUnreachedLength;
  }
  dist[static_cast<size_t>(source) * kCount + col] = 0;
  heap->assign({Entry{0, source}});
  Settle(graph, col, dist, heap);
}

}  // namespace

std::shared_ptr<const LandmarkTables> LandmarkTables::Build(
    const FrozenGraph& graph) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return nullptr;
  auto t = std::unique_ptr<LandmarkTables>(new LandmarkTables());
  t->dist_.resize(static_cast<size_t>(n) * kCount);
  ExactLength* dist = t->dist_.data();
  std::vector<Entry> heap;
  // Node 0's distances, in column 0 until the first landmark's replace
  // them, pick the first landmark; after that `nearest` is each node's
  // distance to the closest landmark chosen so far.
  SingleSource(graph, 0, 0, dist, &heap);
  std::vector<ExactLength> nearest(n);
  for (NodeId v = 0; v < n; ++v) nearest[v] = dist[size_t{v} * kCount];
  for (uint32_t i = 0; i < kCount; ++i) {
    // max_element returns the first maximum: ties go to the smallest id.
    const NodeId pick = static_cast<NodeId>(
        std::max_element(nearest.begin(), nearest.end()) - nearest.begin());
    t->landmarks_[i] = pick;
    SingleSource(graph, pick, i, dist, &heap);
    for (NodeId v = 0; v < n; ++v) {
      const ExactLength d = dist[size_t{v} * kCount + i];
      nearest[v] = i == 0 ? d : std::min(nearest[v], d);
    }
  }
  return t;
}

std::shared_ptr<const LandmarkTables> LandmarkTables::FromLandmarks(
    const FrozenGraph& graph, const std::array<NodeId, kCount>& landmarks) {
  auto t = std::unique_ptr<LandmarkTables>(new LandmarkTables());
  t->landmarks_ = landmarks;
  t->dist_.resize(static_cast<size_t>(graph.num_nodes()) * kCount);
  std::vector<Entry> heap;
  for (uint32_t i = 0; i < kCount; ++i) {
    SingleSource(graph, landmarks[i], i, t->dist_.data(), &heap);
  }
  return t;
}

std::shared_ptr<const LandmarkTables> LandmarkTables::Carry(
    std::shared_ptr<const LandmarkTables> tables, const FrozenGraph& graph,
    const std::vector<Edge>& added) {
  NETCLUS_CHECK(tables != nullptr && tables->num_nodes() == graph.num_nodes())
      << "landmark tables carried onto a graph of another node count";
  // Copied on the first improvement; until then every label is read
  // from the shared tables.
  std::unique_ptr<LandmarkTables> copy;
  std::vector<Entry> heap;
  for (uint32_t i = 0; i < kCount; ++i) {
    heap.clear();
    for (const Edge& e : added) {
      const ExactLength w = ToExact(e.weight);
      const ExactLength* dist = (copy != nullptr ? copy.get() : tables.get())
                                    ->dist_.data();
      const ExactLength du = dist[size_t{e.u} * kCount + i];
      const ExactLength dv = dist[size_t{e.v} * kCount + i];
      // The endpoint the new edge brings closer, and its new label.
      NodeId to = kInvalidNodeId;
      ExactLength label = 0;
      if (du != kUnreachedLength && du + w < dv) {
        to = e.v;
        label = du + w;
      } else if (dv != kUnreachedLength && dv + w < du) {
        to = e.u;
        label = dv + w;
      }
      if (to == kInvalidNodeId) continue;
      if (copy == nullptr) {
        copy = std::unique_ptr<LandmarkTables>(new LandmarkTables(*tables));
      }
      copy->dist_[size_t{to} * kCount + i] = label;
      heap.push_back(Entry{label, to});
    }
    if (!heap.empty()) Settle(graph, i, copy->dist_.data(), &heap);
  }
  if (copy == nullptr) return tables;
  return copy;
}

}  // namespace netclus
