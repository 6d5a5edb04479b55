#include "server/world.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/union_find.h"
#include "graph/network_distance.h"

namespace netclus {

World::World(Network net, CheckpointState state, WorldOptions options)
    : options_(std::move(options)),
      net_(std::move(net)),
      points_(std::move(state.points)),
      edges_(std::move(state.edges)),
      next_object_id_(state.next_object_id),
      recluster_ws_(net_.num_nodes()) {}

World World::Boot(Network net, const PointSet& points, WorldOptions options) {
  CheckpointState state;
  state.num_nodes = net.num_nodes();
  state.points.reserve(points.size());
  for (size_t g = 0; g < points.num_groups(); ++g) {
    const PointSet::Group& grp = points.group(g);
    for (PointId p = grp.first; p < grp.first + grp.count; ++p) {
      state.points.push_back(CheckpointPoint{grp.u, grp.v, points.offset(p),
                                             points.label(p),
                                             state.next_object_id++});
    }
  }
  for (const Edge& e : net.Edges()) {
    state.edges.push_back(
        CheckpointEdge{e.u, e.v, e.weight, state.next_object_id++});
  }
  return World(std::move(net), std::move(state), std::move(options));
}

Result<World> World::Restore(const CheckpointState& state,
                             WorldOptions options) {
  Network net(state.num_nodes);
  for (const CheckpointEdge& e : state.edges) {
    NETCLUS_RETURN_IF_ERROR(net.AddEdge(e.u, e.v, e.weight));
  }
  return World(std::move(net), state, std::move(options));
}

CheckpointState World::Checkpoint() const {
  CheckpointState state;
  state.next_object_id = next_object_id_;
  state.num_nodes = net_.num_nodes();
  state.edges = edges_;
  state.points = points_;
  return state;
}

Status World::Apply(const NetworkUpdate& update) {
  // Every successful apply allocates the object's ObjectId from the
  // monotone watermark. WAL replay runs the same sequence, so a
  // crash/recover re-derives identical ids.
  switch (update.kind) {
    case NetworkUpdate::Kind::kAddEdge: {
      NETCLUS_RETURN_IF_ERROR(net_.AddEdge(update.u, update.v, update.value));
      edges_.push_back(CheckpointEdge{std::min(update.u, update.v),
                                      std::max(update.u, update.v),
                                      update.value, next_object_id_++});
      unpublished_.push_back(update);
      return Status::OK();
    }
    case NetworkUpdate::Kind::kAddPoint: {
      const double w = net_.EdgeWeight(update.u, update.v);
      if (w < 0.0) {
        return Status::InvalidArgument("AddPoint: edge does not exist");
      }
      // Written so NaN fails the test: it compares false both ways.
      if (!(update.value >= 0.0 && update.value <= w)) {
        return Status::InvalidArgument("AddPoint: offset outside edge");
      }
      points_.push_back(CheckpointPoint{update.u, update.v, update.value,
                                        update.label, next_object_id_++});
      unpublished_.push_back(update);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

Result<PointSet> World::FullPoints(
    std::vector<uint32_t>* record_of_point) const {
  PointSetBuilder builder;
  for (const CheckpointPoint& p : points_) {
    builder.Add(p.u, p.v, p.offset, p.label);
  }
  std::vector<PointId> record_to_final;
  NETCLUS_ASSIGN_OR_RETURN(PointSet built,
                           std::move(builder).Build(net_, &record_to_final));
  record_of_point->resize(record_to_final.size());
  for (size_t i = 0; i < record_to_final.size(); ++i) {
    (*record_of_point)[record_to_final[i]] = static_cast<uint32_t>(i);
  }
  return built;
}

IdentityMap World::FreshIdentityMap(
    const std::vector<uint32_t>& record_of_point) const {
  // Dense point p carries its record's ObjectId.
  std::vector<ObjectId> object_of_point(record_of_point.size());
  for (size_t p = 0; p < object_of_point.size(); ++p) {
    object_of_point[p] = points_[record_of_point[p]].oid;
  }
  return IdentityMap(std::move(object_of_point), next_object_id_);
}

Result<World::Epoch> World::BuildPointsAndGraph(
    bool incremental, const std::vector<Edge>& added_edges,
    PointSetMerge* merge) const {
  WallTimer timer;
  Epoch epoch;
  epoch.incremental = incremental;
  std::shared_ptr<const PointSet> points;
  if (!incremental) {
    std::vector<uint32_t> record_of_point;
    NETCLUS_ASSIGN_OR_RETURN(PointSet ps, FullPoints(&record_of_point));
    // The one copy of the epoch's points: its graph co-owns it.
    points = std::make_shared<const PointSet>(std::move(ps));
    epoch.ids =
        std::make_shared<const IdentityMap>(FreshIdentityMap(record_of_point));
  } else {
    // Records only grow, so the base holds exactly records [0, known)
    // and the new points are the rest, merged in record order.
    const PointSet& base = base_graph_->points();
    const size_t known = base.size();
    PointSetBuilder builder;
    for (size_t i = known; i < points_.size(); ++i) {
      const CheckpointPoint& p = points_[i];
      builder.Add(p.u, p.v, p.offset, p.label);
    }
    NETCLUS_ASSIGN_OR_RETURN(PointSet ps,
                             std::move(builder).Merge(net_, base, merge));
    points = std::make_shared<const PointSet>(std::move(ps));
    // The base's map carried through the merge's renumbering.
    std::vector<ObjectId> added_oids(merge->added_order.size());
    for (size_t j = 0; j < added_oids.size(); ++j) {
      added_oids[j] = points_[known + merge->added_order[j]].oid;
    }
    epoch.ids = std::make_shared<const IdentityMap>(IdentityMap::Carry(
        *base_ids_, merge->points, added_oids, next_object_id_));
    if (options_.validate) {
      // The oracles: a from-scratch build over every record must be
      // byte-for-byte the merged set, and the map built from those
      // records must translate every ObjectId and PointId as the
      // carried one does. A divergence fails the Build; the base does
      // not advance.
      std::vector<uint32_t> record_of_point;
      NETCLUS_ASSIGN_OR_RETURN(PointSet full, FullPoints(&record_of_point));
      if (!points->BitIdenticalTo(full)) {
        return Status::Internal("merged PointSet diverged from full build");
      }
      if (!epoch.ids->SameMappingAs(FreshIdentityMap(record_of_point))) {
        return Status::Internal(
            "carried identity map diverged from full build");
      }
    }
  }
  epoch.points_ms = timer.ElapsedMillis();

  timer.Restart();
  if (!incremental) {
    epoch.graph = std::make_shared<const FrozenGraph>(
        FrozenGraph::Materialize(net_, std::move(points)));
  } else {
    // The base's rows, shifted by the edges added since (Network::AddEdge
    // appends each to the end of both rows) or shared when there are
    // none, and its point handle carried past the opened groups.
    FrozenGraph fg =
        added_edges.empty()
            ? base_graph_->WithPoints(points, merge->groups)
            : base_graph_->WithEdges(added_edges)
                  .WithPoints(points, merge->groups);
    if (options_.validate &&
        !fg.BitIdenticalTo(FrozenGraph::Materialize(net_, points))) {
      // The oracle: a from-scratch rebuild must be byte-for-byte the
      // carried one. A divergence fails the Build, so queries keep
      // serving the last good epoch, never a stale adjacency.
      return Status::Internal(
          "incremental publish diverged from full rebuild");
    }
    epoch.graph = std::make_shared<const FrozenGraph>(std::move(fg));
  }
  epoch.csr_ms = timer.ElapsedMillis();
  return epoch;
}

Result<World::Epoch> World::Build() {
  const bool incremental = base_graph_ != nullptr;
  // The metric (edge set + weights) changes only with an AddEdge. While
  // it holds, the base's adjacency and distance cache stay exact and
  // ride along into the new epoch; an edge (or the first build)
  // replaces both.
  std::vector<Edge> added_edges;
  for (const NetworkUpdate& u : unpublished_) {
    if (u.kind == NetworkUpdate::Kind::kAddEdge) {
      added_edges.push_back(Edge{u.u, u.v, u.value});
    }
  }
  const bool metric_changed = !incremental || !added_edges.empty();
  PointSetMerge merge;
  NETCLUS_ASSIGN_OR_RETURN(
      Epoch epoch, BuildPointsAndGraph(incremental, added_edges, &merge));
  // A shared adjacency brought the base's tables along (WithPoints); a
  // shifted one needs them carried over the new edges.
  if (metric_changed && incremental && base_graph_->landmarks() != nullptr) {
    WallTimer timer;
    NETCLUS_ASSIGN_OR_RETURN(std::shared_ptr<const LandmarkTables> tables,
                             CarryLandmarks(*epoch.graph, added_edges));
    epoch.landmarks_repaired = tables != base_graph_->shared_landmarks();
    epoch.graph = std::make_shared<const FrozenGraph>(
        epoch.graph->WithLandmarks(std::move(tables)));
    epoch.landmarks_ms = timer.ElapsedMillis();
  }
  const bool eps_link = options_.cluster_spec.has_value() &&
                        options_.cluster_spec->algorithm == Algorithm::kEpsLink;
  if (options_.cluster_spec.has_value()) {
    WallTimer timer;
    InMemoryNetworkView view(net_, epoch.graph->points());
    NETCLUS_ASSIGN_OR_RETURN(
        ClusterOutput out,
        Recluster(view, *epoch.graph, merge.points, incremental,
                  &epoch.recluster_incremental));
    epoch.clusters = std::make_shared<const ClusterOutput>(std::move(out));
    epoch.recluster_ms = timer.ElapsedMillis();
  }

  // The cache keys on ObjectId pairs, so a point-only batch hands the
  // SAME cache to the next epoch — warm entries survive republication —
  // and no epoch can ever read a distance its adjacency does not
  // produce.
  if (options_.cache_capacity > 0 && metric_changed) {
    live_cache_ =
        std::make_shared<const DistanceCache>(options_.cache_capacity);
  }
  epoch.cache = live_cache_;

  // The base advances only here, with the epoch it describes; a failed
  // Build leaves it in place, so its mutations merge next time.
  base_graph_ = epoch.graph;
  base_ids_ = epoch.ids;
  if (eps_link) {
    std::swap(components_, next_components_);
    base_clusters_ = epoch.clusters;
  }
  unpublished_.clear();
  return epoch;
}

Result<World::Epoch> World::BuildFull() const {
  NETCLUS_ASSIGN_OR_RETURN(
      Epoch epoch, BuildPointsAndGraph(/*incremental=*/false,
                                       /*added_edges=*/{}, /*merge=*/nullptr));
  if (options_.cluster_spec.has_value()) {
    WallTimer timer;
    // The independent reference: RunClustering freezes its own snapshot.
    InMemoryNetworkView view(net_, epoch.graph->points());
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(view, *options_.cluster_spec));
    epoch.clusters = std::make_shared<const ClusterOutput>(std::move(out));
    epoch.recluster_ms = timer.ElapsedMillis();
  }
  if (options_.cache_capacity > 0) {
    epoch.cache =
        std::make_shared<const DistanceCache>(options_.cache_capacity);
  }
  return epoch;
}

std::shared_ptr<const FrozenGraph> World::BuildLandmarks() {
  if (base_graph_ == nullptr || base_graph_->landmarks() != nullptr) {
    return nullptr;
  }
  base_graph_ = std::make_shared<const FrozenGraph>(
      base_graph_->WithLandmarks(LandmarkTables::Build(*base_graph_)));
  return base_graph_;
}

Result<std::shared_ptr<const LandmarkTables>> World::CarryLandmarks(
    const FrozenGraph& graph, const std::vector<Edge>& added_edges) const {
  std::shared_ptr<const LandmarkTables> tables = LandmarkTables::Carry(
      base_graph_->shared_landmarks(), graph, added_edges);
  // The oracle: fresh searches from the same landmarks over the new
  // graph must give the very same integers. Stale tables would not be
  // lower bounds, so a divergence fails the Build.
  if (options_.validate &&
      *tables != *LandmarkTables::FromLandmarks(graph, tables->landmarks())) {
    return Status::Internal(
        "carried landmark tables diverged from fresh searches");
  }
  return tables;
}

namespace {

// The clustering published at min_sup > 1 for the components
// `of_point`, numbered by first dense id: each component below min_sup
// is noise and the rest are renumbered in order through a
// per-component rank table.
void RankComponents(const std::vector<int>& of_point,
                    const std::vector<uint32_t>& size, uint32_t min_sup,
                    Clustering* out) {
  std::vector<int> rank(size.size());
  int next = 0;
  for (size_t c = 0; c < size.size(); ++c) {
    rank[c] = size[c] < min_sup ? kNoise : next++;
  }
  out->assignment.resize(of_point.size());
  for (size_t p = 0; p < of_point.size(); ++p) {
    out->assignment[p] = rank[static_cast<size_t>(of_point[p])];
  }
  out->num_clusters = next;
}

}  // namespace

Result<ClusterOutput> World::Recluster(const NetworkView& view,
                                       const FrozenGraph& graph,
                                       const Renumbering& added,
                                       bool incremental, bool* merged) {
  const ClusterSpec& spec = *options_.cluster_spec;
  *merged = false;
  if (spec.algorithm != Algorithm::kEpsLink) {
    return RunClustering(view, graph, spec);
  }
  const uint32_t min_sup = spec.eps_link.min_sup;
  // At min_sup 1 the published labels are the components themselves:
  // the base's are read off its clustering, and the next epoch's are
  // written straight into the output.
  const bool published_are_components = min_sup <= 1;
  Components& next = next_components_;
  if (!incremental || !components_.seeded) {
    // Seed from one full run at min_sup 1, so components still too small
    // to publish are kept: insert-only mutations can grow them past
    // min_sup later. Its labels are the components, numbered by first
    // dense id; publishing them at the real min_sup gives exactly what
    // a run at that min_sup returns.
    ClusterSpec seed_spec = spec;
    seed_spec.eps_link.min_sup = 1;
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(view, graph, seed_spec));
    const std::vector<int>& labels = out.clustering.assignment;
    next.first.clear();
    next.size.assign(static_cast<size_t>(out.clustering.num_clusters), 0);
    for (size_t p = 0; p < labels.size(); ++p) {
      const auto c = static_cast<size_t>(labels[p]);
      if (next.size[c]++ == 0) {
        NETCLUS_DCHECK(c == next.first.size())
            << "ε-Link numbers its clusters by first dense id";
        next.first.push_back(static_cast<PointId>(p));
      }
    }
    next.seeded = true;
    next.of_point.clear();
    if (!published_are_components) {
      next.of_point = std::move(out.clustering.assignment);
      RankComponents(next.of_point, next.size, min_sup, &out.clustering);
    }
    return out;
  }

  // Mutations only add links, so components only merge, and every new
  // link touches a new point or runs through a new edge. Both kinds
  // are found on the final graph, which already holds the whole batch.
  WallTimer timer;
  const double eps = spec.eps_link.eps;
  const Components& base = components_;
  const std::vector<int>& base_of_point =
      published_are_components ? base_clusters_->clustering.assignment
                               : base.of_point;
  const std::vector<PointId>& at = added.inserted();
  const auto k = static_cast<uint32_t>(at.size());
  TraversalWorkspace* ws = &recluster_ws_;

  // Each link joins two nodes: node j < k is the j-th new point, node
  // k + c the base component c of a base point.
  auto node_of = [&](PointId f) -> uint32_t {
    const auto j = static_cast<uint32_t>(
        std::lower_bound(at.begin(), at.end(), f) - at.begin());
    if (j < k && at[j] == f) return j;
    // f is a base point with j new points ahead of it.
    return k + static_cast<uint32_t>(base_of_point[f - j]);
  };
  std::vector<std::pair<uint32_t, uint32_t>> links;

  // A new point links to every point within eps of it, new ones too.
  std::vector<RangeResult> near;
  for (uint32_t j = 0; j < k; ++j) {
    RangeQuery(view, graph, at[j], eps, ws, &near);
    for (const RangeResult& r : near) links.emplace_back(j, node_of(r.id));
  }

  // A new edge (u, v, w) links a within eps of u to b within eps of v
  // when dA(a) + w + dB(b) <= eps. With a* nearest u and b* nearest v,
  // every such pair is chained a - b* - a* - b through links that pass
  // the same test, so joining each b to a* and each a to b* suffices.
  std::vector<RangeResult> from_u;
  std::vector<RangeResult> from_v;
  auto nearest = [](const std::vector<RangeResult>& rs) {
    return *std::min_element(rs.begin(), rs.end(),
                             [](const RangeResult& x, const RangeResult& y) {
                               return x.dist < y.dist;
                             });
  };
  for (const NetworkUpdate& upd : unpublished_) {
    if (upd.kind != NetworkUpdate::Kind::kAddEdge || upd.value > eps) {
      continue;
    }
    NodeRangeQuery(view, graph, upd.u, eps, ws, &from_u);
    NodeRangeQuery(view, graph, upd.v, eps, ws, &from_v);
    if (from_u.empty() || from_v.empty()) continue;
    const RangeResult a_star = nearest(from_u);
    const RangeResult b_star = nearest(from_v);
    for (const RangeResult& b : from_v) {
      if (a_star.dist + upd.value + b.dist <= eps) {
        links.emplace_back(node_of(a_star.id), node_of(b.id));
      }
    }
    for (const RangeResult& a : from_u) {
      if (a.dist + upd.value + b_star.dist <= eps) {
        links.emplace_back(node_of(a.id), node_of(b_star.id));
      }
    }
  }

  // The union-find holds the new points and the base components the
  // links touch, compacted: touched[t] is node k + t.
  std::vector<uint32_t> touched;
  for (const auto& [x, y] : links) {
    if (x >= k) touched.push_back(x - k);
    if (y >= k) touched.push_back(y - k);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  auto compact = [&](uint32_t node) {
    return node < k ? node
                    : k + static_cast<uint32_t>(
                              std::lower_bound(touched.begin(), touched.end(),
                                               node - k) -
                              touched.begin());
  };
  const auto nodes = static_cast<uint32_t>(k + touched.size());
  UnionFind uf(nodes);
  for (const auto& [x, y] : links) uf.Union(compact(x), compact(y));

  // Each merged component's first dense id and size, by root: a new
  // point is its own first id, a touched component's first id moves
  // past the new points ahead of it.
  std::vector<PointId> merged_first(nodes, kInvalidPointId);
  std::vector<uint32_t> merged_size(nodes, 0);
  for (uint32_t i = 0; i < nodes; ++i) {
    const uint32_t root = uf.Find(i);
    const size_t c = i < k ? 0 : touched[i - k];
    const PointId first = i < k ? at[i] : added.Remap(base.first[c]);
    merged_first[root] = std::min(merged_first[root], first);
    merged_size[root] += i < k ? 1 : base.size[c];
  }
  std::vector<uint32_t> roots;
  for (uint32_t i = 0; i < nodes; ++i) {
    if (uf.Find(i) == i) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end(), [&](uint32_t x, uint32_t y) {
    return merged_first[x] < merged_first[y];
  });

  // Renumber by first dense id: the untouched components, already in
  // order and moved past the new points ahead of them, merged with the
  // merged ones in order. A merged component lands before the first
  // base component whose moved first id is larger; between the landing
  // places and the touched components, the untouched ones are copied in
  // runs, their numbers shifted by a constant.
  const size_t num_base = base.first.size();
  std::vector<uint32_t> land(roots.size());
  for (size_t r = 0; r < roots.size(); ++r) {
    land[r] = static_cast<uint32_t>(
        std::partition_point(base.first.begin(), base.first.end(),
                             [&](PointId f) {
                               return added.Remap(f) < merged_first[roots[r]];
                             }) -
        base.first.begin());
  }
  const size_t num_next = num_base - touched.size() + roots.size();
  std::vector<uint32_t>& renumbered = renumbered_component_;
  renumbered.resize(num_base);
  next.first.resize(num_next);
  next.size.resize(num_next);
  std::vector<int> number_of_root(nodes, -1);
  size_t c = 0;
  size_t out_c = 0;
  auto copy_untouched = [&](size_t end) {
    const size_t n = end - c;
    for (size_t i = 0; i < n; ++i) {
      renumbered[c + i] = static_cast<uint32_t>(out_c + i);
    }
    added.RemapAll(base.first.data() + c, n, next.first.data() + out_c,
                   kInvalidPointId);
    std::copy(base.size.begin() + c, base.size.begin() + end,
              next.size.begin() + out_c);
    c = end;
    out_c += n;
  };
  size_t t = 0;
  size_t r = 0;
  while (t < touched.size() || r < roots.size()) {
    if (r < roots.size() && (t == touched.size() || land[r] <= touched[t])) {
      copy_untouched(land[r]);
      number_of_root[roots[r]] = static_cast<int>(out_c);
      next.first[out_c] = merged_first[roots[r]];
      next.size[out_c] = merged_size[roots[r]];
      ++out_c;
      ++r;
    } else {
      copy_untouched(touched[t]);
      ++c;  // merged into a component placed by its root
      ++t;
    }
  }
  copy_untouched(num_base);
  for (size_t i = 0; i < touched.size(); ++i) {
    renumbered[touched[i]] = static_cast<uint32_t>(
        number_of_root[uf.Find(k + static_cast<uint32_t>(i))]);
  }

  // Every point's component in one pass: the base points' in runs
  // through the old → new table, each new point its merged component.
  ClusterOutput out;
  out.algorithm = Algorithm::kEpsLink;
  std::vector<int>& of_point =
      published_are_components ? out.clustering.assignment : next.of_point;
  const int* from = base_of_point.data();
  of_point.resize(base_of_point.size() + k);
  int* to = of_point.data();
  const uint32_t* table = renumbered.data();
  added.ForEachRun(
      base_of_point.size(),
      [&](size_t q, size_t f, size_t n) {
        for (size_t i = 0; i < n; ++i) {
          to[f + i] = static_cast<int>(table[from[q + i]]);
        }
      },
      [&](size_t j, size_t f) {
        to[f] = number_of_root[uf.Find(static_cast<uint32_t>(j))];
      });
  next.seeded = true;
  if (published_are_components) {
    out.clustering.num_clusters = static_cast<int>(num_next);
  } else {
    RankComponents(next.of_point, next.size, min_sup, &out.clustering);
  }
  out.wall_seconds = timer.ElapsedSeconds();
  *merged = true;

  if (options_.validate || spec.validate) {
    // The oracle: a full run must agree label for label. A divergence
    // fails the Build (the last good epoch keeps serving) and drops the
    // components, so the next Build reseeds them from a full run.
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput full,
                             RunClustering(view, graph, spec));
    if (full.clustering.num_clusters != out.clustering.num_clusters ||
        full.clustering.assignment != out.clustering.assignment) {
      components_.seeded = false;
      return Status::Internal(
          "incremental re-cluster diverged from full RunClustering");
    }
  }
  return out;
}

}  // namespace netclus
