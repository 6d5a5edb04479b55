#include "server/world.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
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

Result<PointSet> World::BuildPoints(
    bool merge, std::vector<uint32_t>* record_of_point,
    std::vector<PointId>* base_to_final,
    std::vector<PointId>* added_points) const {
  const size_t known = merge ? base_graph_->points().size() : 0;
  PointSetBuilder builder;
  for (size_t i = known; i < points_.size(); ++i) {
    const CheckpointPoint& p = points_[i];
    builder.Add(p.u, p.v, p.offset, p.label);
  }
  if (!merge) {
    std::vector<PointId> record_to_final;
    NETCLUS_ASSIGN_OR_RETURN(PointSet built,
                             std::move(builder).Build(net_, &record_to_final));
    record_of_point->resize(record_to_final.size());
    for (size_t i = 0; i < record_to_final.size(); ++i) {
      (*record_of_point)[record_to_final[i]] = static_cast<uint32_t>(i);
    }
    base_to_final->clear();
    added_points->clear();
    return built;
  }

  // Records only grow, so the base holds exactly records [0, known).
  // The merge keeps the base points in order, so carrying each one's
  // record to its final id is one pass of ascending writes.
  NETCLUS_DCHECK(base_record_of_point_.size() == known)
      << "merge base out of step with its mapping";
  NETCLUS_ASSIGN_OR_RETURN(
      PointSet merged, std::move(builder).Merge(net_, base_graph_->points(),
                                                base_to_final, added_points));
  record_of_point->resize(points_.size());
  for (size_t q = 0; q < known; ++q) {
    (*record_of_point)[(*base_to_final)[q]] = base_record_of_point_[q];
  }
  for (size_t j = 0; j < added_points->size(); ++j) {
    (*record_of_point)[(*added_points)[j]] = static_cast<uint32_t>(known + j);
  }
  if (options_.validate) {
    // The oracle: a from-scratch build over every record must be
    // byte-for-byte the merged set, and map every point alike. A
    // divergence fails the Build; the base does not advance.
    std::vector<uint32_t> full_record_of_point;
    std::vector<PointId> none;
    NETCLUS_ASSIGN_OR_RETURN(
        PointSet full,
        BuildPoints(false, &full_record_of_point, &none, &none));
    if (!merged.BitIdenticalTo(full) ||
        *record_of_point != full_record_of_point) {
      return Status::Internal("merged PointSet diverged from full build");
    }
  }
  return merged;
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
    std::vector<uint32_t>* record_of_point,
    std::vector<PointId>* added_points) const {
  WallTimer timer;
  Epoch epoch;
  epoch.incremental = incremental;
  std::vector<PointId> base_to_final;
  NETCLUS_ASSIGN_OR_RETURN(PointSet ps,
                           BuildPoints(incremental, record_of_point,
                                       &base_to_final, added_points));
  // The one copy of the epoch's points: its graph co-owns it.
  auto points = std::make_shared<const PointSet>(std::move(ps));
  if (!incremental) {
    epoch.ids =
        std::make_shared<const IdentityMap>(FreshIdentityMap(*record_of_point));
  } else {
    // The base's map carried through the merge: the new points are
    // records [known, ...), in record order in `added_points`.
    const size_t known = points_.size() - added_points->size();
    std::vector<std::pair<PointId, ObjectId>> added(added_points->size());
    for (size_t j = 0; j < added.size(); ++j) {
      added[j] = {(*added_points)[j], points_[known + j].oid};
    }
    epoch.ids = std::make_shared<const IdentityMap>(IdentityMap::Carry(
        *base_ids_, base_to_final, std::move(added), next_object_id_));
    if (options_.validate &&
        !epoch.ids->SameMappingAs(FreshIdentityMap(*record_of_point))) {
      // The oracle: the map built from every record must translate
      // every ObjectId and PointId as the carried one does.
      return Status::Internal("carried identity map diverged from full build");
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
    // none, and its point handle carried over to the merged points.
    FrozenGraph fg =
        added_edges.empty()
            ? base_graph_->WithPoints(points)
            : base_graph_->WithEdges(added_edges).WithPoints(points);
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
  std::vector<uint32_t> record_of_point;
  std::vector<PointId> added_points;
  NETCLUS_ASSIGN_OR_RETURN(Epoch epoch,
                           BuildPointsAndGraph(incremental, added_edges,
                                               &record_of_point, &added_points));
  // A shared adjacency brought the base's tables along (WithPoints); a
  // shifted one needs them carried over the new edges.
  if (metric_changed && incremental && base_graph_->landmarks() != nullptr) {
    WallTimer timer;
    NETCLUS_ASSIGN_OR_RETURN(std::shared_ptr<const LandmarkTables> tables,
                             CarryLandmarks(*epoch.graph, added_edges));
    epoch.graph = std::make_shared<const FrozenGraph>(
        epoch.graph->WithLandmarks(std::move(tables)));
    epoch.landmarks_ms = timer.ElapsedMillis();
  }
  if (options_.cluster_spec.has_value()) {
    WallTimer timer;
    InMemoryNetworkView view(net_, epoch.graph->points());
    NETCLUS_ASSIGN_OR_RETURN(
        ClusterOutput out,
        Recluster(view, *epoch.graph, record_of_point, added_points,
                  incremental, &epoch.recluster_incremental));
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
  base_record_of_point_ = std::move(record_of_point);
  unpublished_.clear();
  return epoch;
}

Result<World::Epoch> World::BuildFull() const {
  std::vector<uint32_t> record_of_point;
  std::vector<PointId> added_points;
  NETCLUS_ASSIGN_OR_RETURN(
      Epoch epoch,
      BuildPointsAndGraph(/*incremental=*/false, /*added_edges=*/{},
                          &record_of_point, &added_points));
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

Result<ClusterOutput> World::Recluster(
    const NetworkView& view, const FrozenGraph& graph,
    const std::vector<uint32_t>& record_of_point,
    const std::vector<PointId>& added_points, bool incremental,
    bool* merged) {
  const ClusterSpec& spec = *options_.cluster_spec;
  *merged = false;
  if (spec.algorithm != Algorithm::kEpsLink) {
    return RunClustering(view, graph, spec);
  }
  const uint32_t min_sup = spec.eps_link.min_sup;
  const uint32_t num_records = static_cast<uint32_t>(record_of_point.size());
  if (!incremental || !components_seeded_) {
    // Seed the forest from one full run at min_sup 1, so components
    // still too small to publish are kept: insert-only mutations can
    // grow them past min_sup later. Labelling the forest at the real
    // min_sup gives exactly what a run at that min_sup returns.
    ClusterSpec seed_spec = spec;
    seed_spec.eps_link.min_sup = 1;
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(view, graph, seed_spec));
    components_ = UnionFind(num_records);
    std::vector<uint32_t> first_record(
        static_cast<size_t>(out.clustering.num_clusters), num_records);
    for (uint32_t p = 0; p < num_records; ++p) {
      const int label = out.clustering.assignment[p];
      uint32_t& first = first_record[static_cast<size_t>(label)];
      if (first == num_records) {
        first = record_of_point[p];
      } else {
        components_.Union(first, record_of_point[p]);
      }
    }
    components_seeded_ = true;
    LabelComponents(record_of_point, min_sup, &out.clustering);
    return out;
  }

  // Mutations only add links, so components only merge, and every new
  // link touches a new point or runs through a new edge. Both kinds
  // are found on the final graph, which already holds the whole batch.
  WallTimer timer;
  const double eps = spec.eps_link.eps;
  const uint32_t known = components_.num_elements();
  components_.Grow(num_records);
  TraversalWorkspace* ws = &recluster_ws_;

  // A new point links to every point within eps of it, new ones too.
  std::vector<RangeResult> near;
  for (size_t j = 0; j < added_points.size(); ++j) {
    RangeQuery(view, graph, added_points[j], eps, ws, &near);
    for (const RangeResult& r : near) {
      components_.Union(known + static_cast<uint32_t>(j),
                        record_of_point[r.id]);
    }
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
        components_.Union(record_of_point[a_star.id], record_of_point[b.id]);
      }
    }
    for (const RangeResult& a : from_u) {
      if (a.dist + upd.value + b_star.dist <= eps) {
        components_.Union(record_of_point[a.id], record_of_point[b_star.id]);
      }
    }
  }

  ClusterOutput out;
  out.algorithm = Algorithm::kEpsLink;
  LabelComponents(record_of_point, min_sup, &out.clustering);
  out.wall_seconds = timer.ElapsedSeconds();
  *merged = true;

  if (options_.validate || spec.validate) {
    // The oracle: a full run must agree label for label. A divergence
    // fails the Build (the last good epoch keeps serving) and drops the
    // forest, so the next Build reseeds it from a full run.
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput full,
                             RunClustering(view, graph, spec));
    if (full.clustering.num_clusters != out.clustering.num_clusters ||
        full.clustering.assignment != out.clustering.assignment) {
      components_seeded_ = false;
      return Status::Internal(
          "incremental re-cluster diverged from full RunClustering");
    }
  }
  return out;
}

void World::LabelComponents(const std::vector<uint32_t>& record_of_point,
                            uint32_t min_sup, Clustering* out) {
  // ε-Link numbers clusters by their smallest dense id, and a component
  // below min_sup is noise. Three passes in dense order, none of which
  // carries a dependence through memory from one point to the next, as
  // numbering clusters in a table on the fly would: each point's root
  // and each root's first point (running backwards, the first point
  // writes last); the count of clusters opened before each point, which
  // is its cluster's number when it is the first point; and each
  // point's number read off its cluster's first point.
  const size_t n = record_of_point.size();
  std::vector<int>& label = out->assignment;
  label.resize(n);
  root_of_point_.resize(n);
  if (first_point_of_root_.size() < n) first_point_of_root_.resize(n);
  for (size_t p = n; p-- > 0;) {
    const uint32_t root = components_.Find(record_of_point[p]);
    root_of_point_[p] = root;
    first_point_of_root_[root] = static_cast<uint32_t>(p);
  }
  int next = 0;
  for (size_t p = 0; p < n; ++p) {
    const uint32_t root = root_of_point_[p];
    if (min_sup > 1 && components_.SizeOf(root) < min_sup) {
      label[p] = kNoise;
      continue;
    }
    label[p] = next;
    next += first_point_of_root_[root] == p ? 1 : 0;
  }
  for (size_t p = 0; p < n; ++p) {
    if (label[p] != kNoise) {
      label[p] = label[first_point_of_root_[root_of_point_[p]]];
    }
  }
  out->num_clusters = next;
}

}  // namespace netclus
