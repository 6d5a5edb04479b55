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
      next_object_id_(state.next_object_id),
      recluster_ws_(net_.num_nodes()) {
  edge_ids_.reserve(state.edges.size());
  for (const CheckpointEdge& e : state.edges) {
    edge_ids_[EdgeKeyOf(e.u, e.v)] = e.oid;
  }
}

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
  state.edges.reserve(net_.num_edges());
  for (const Edge& e : net_.Edges()) {
    state.edges.push_back(CheckpointEdge{e.u, e.v, e.weight,
                                         edge_ids_.at(EdgeKeyOf(e.u, e.v))});
  }
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
      edge_ids_[EdgeKeyOf(update.u, update.v)] = next_object_id_++;
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
    bool merge, std::vector<PointId>* record_to_final) const {
  const size_t known = merge ? base_graph_->points().size() : 0;
  PointSetBuilder builder;
  for (size_t i = known; i < points_.size(); ++i) {
    const CheckpointPoint& p = points_[i];
    builder.Add(p.u, p.v, p.offset, p.label);
  }
  if (!merge) return std::move(builder).Build(net_, record_to_final);

  // Records only grow, so the base holds exactly records [0, known),
  // and the base's mapping says where each landed.
  NETCLUS_DCHECK(base_record_to_final_.size() == known)
      << "merge base out of step with its mapping";
  std::vector<PointId> base_to_final;
  std::vector<PointId> added_to_final;
  NETCLUS_ASSIGN_OR_RETURN(
      PointSet merged, std::move(builder).Merge(net_, base_graph_->points(),
                                                &base_to_final,
                                                &added_to_final));
  record_to_final->resize(points_.size());
  for (size_t i = 0; i < known; ++i) {
    (*record_to_final)[i] = base_to_final[base_record_to_final_[i]];
  }
  std::copy(added_to_final.begin(), added_to_final.end(),
            record_to_final->begin() + static_cast<std::ptrdiff_t>(known));
  if (options_.validate) {
    // The oracle: a from-scratch build over every record must be
    // byte-for-byte the merged set, and map every record alike. A
    // divergence fails the Build; the base does not advance.
    std::vector<PointId> full_record_to_final;
    NETCLUS_ASSIGN_OR_RETURN(PointSet full,
                             BuildPoints(false, &full_record_to_final));
    if (!merged.BitIdenticalTo(full) ||
        *record_to_final != full_record_to_final) {
      return Status::Internal("merged PointSet diverged from full build");
    }
  }
  return merged;
}

Result<World::Epoch> World::BuildPointsAndGraph(
    bool incremental, const FrozenGraph* adjacency_base,
    std::vector<PointId>* record_to_final) const {
  WallTimer timer;
  Epoch epoch;
  epoch.incremental = incremental;
  NETCLUS_ASSIGN_OR_RETURN(PointSet ps,
                           BuildPoints(incremental, record_to_final));
  // The one copy of the epoch's points: its graph co-owns it.
  auto points = std::make_shared<const PointSet>(std::move(ps));
  // The epoch's identity map: dense point p was record i, so it carries
  // record i's ObjectId.
  std::vector<ObjectId> object_of_point(points_.size(), kInvalidObjectId);
  for (size_t i = 0; i < record_to_final->size(); ++i) {
    object_of_point[(*record_to_final)[i]] = points_[i].oid;
  }
  epoch.ids = std::make_shared<const IdentityMap>(std::move(object_of_point));
  epoch.points_ms = timer.ElapsedMillis();

  timer.Restart();
  if (adjacency_base == nullptr) {
    epoch.graph = std::make_shared<const FrozenGraph>(
        FrozenGraph::Materialize(net_, std::move(points)));
  } else {
    // No edge since `adjacency_base` was built, so its rows are still
    // the network's: share them and rebuild only the point ranges.
    FrozenGraph fg = adjacency_base->WithPoints(points);
    if (options_.validate &&
        !fg.BitIdenticalTo(FrozenGraph::Materialize(net_, points))) {
      // The oracle: a from-scratch rebuild must be byte-for-byte the
      // shared one. A divergence fails the Build, so queries keep
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
  const bool metric_changed =
      !incremental ||
      std::any_of(unpublished_.begin(), unpublished_.end(),
                  [](const NetworkUpdate& u) {
                    return u.kind == NetworkUpdate::Kind::kAddEdge;
                  });
  std::vector<PointId> record_to_final;
  NETCLUS_ASSIGN_OR_RETURN(
      Epoch epoch,
      BuildPointsAndGraph(incremental,
                          metric_changed ? nullptr : base_graph_.get(),
                          &record_to_final));
  if (options_.cluster_spec.has_value()) {
    WallTimer timer;
    InMemoryNetworkView view(net_, epoch.graph->points());
    NETCLUS_ASSIGN_OR_RETURN(
        ClusterOutput out,
        Recluster(view, *epoch.graph, record_to_final, incremental,
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
  base_record_to_final_ = std::move(record_to_final);
  unpublished_.clear();
  return epoch;
}

Result<World::Epoch> World::BuildFull() const {
  std::vector<PointId> record_to_final;
  NETCLUS_ASSIGN_OR_RETURN(
      Epoch epoch,
      BuildPointsAndGraph(/*incremental=*/false, /*adjacency_base=*/nullptr,
                          &record_to_final));
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

Result<ClusterOutput> World::Recluster(
    const NetworkView& view, const FrozenGraph& graph,
    const std::vector<PointId>& record_to_final, bool incremental,
    bool* merged) {
  const ClusterSpec& spec = *options_.cluster_spec;
  *merged = false;
  if (spec.algorithm != Algorithm::kEpsLink) {
    return RunClustering(view, graph, spec);
  }
  const uint32_t min_sup = spec.eps_link.min_sup;
  const uint32_t num_records = static_cast<uint32_t>(record_to_final.size());
  if (!incremental || !components_seeded_) {
    // Seed the forest from one full run at min_sup 1, so components
    // still too small to publish are kept: insert-only mutations can
    // grow them past min_sup later. Re-normalizing at the real min_sup
    // gives exactly what a run at that min_sup returns.
    ClusterSpec seed_spec = spec;
    seed_spec.eps_link.min_sup = 1;
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(view, graph, seed_spec));
    components_ = UnionFind(num_records);
    std::vector<uint32_t> first_record(
        static_cast<size_t>(out.clustering.num_clusters), num_records);
    for (uint32_t i = 0; i < num_records; ++i) {
      const int label = out.clustering.assignment[record_to_final[i]];
      uint32_t& first = first_record[static_cast<size_t>(label)];
      if (first == num_records) {
        first = i;
      } else {
        components_.Union(first, i);
      }
    }
    components_seeded_ = true;
    NormalizeClustering(&out.clustering, min_sup);
    return out;
  }

  // Mutations only add links, so components only merge, and every new
  // link touches a new point or runs through a new edge. Both kinds
  // are found on the final graph, which already holds the whole batch.
  WallTimer timer;
  const double eps = spec.eps_link.eps;
  const uint32_t known = components_.num_elements();
  components_.Grow(num_records);
  std::vector<uint32_t> record_of_point(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    record_of_point[record_to_final[i]] = i;
  }
  TraversalWorkspace* ws = &recluster_ws_;

  // A new point links to every point within eps of it, new ones too.
  std::vector<RangeResult> near;
  for (uint32_t i = known; i < num_records; ++i) {
    RangeQuery(view, graph, record_to_final[i], eps, ws, &near);
    for (const RangeResult& r : near) {
      components_.Union(i, record_of_point[r.id]);
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

  // ε-Link numbers clusters by their smallest dense id and noise is a
  // matter of component size, so labelling each point by its root in
  // dense order and normalizing reproduces the full run's labels.
  ClusterOutput out;
  out.algorithm = Algorithm::kEpsLink;
  out.clustering.assignment.resize(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    out.clustering.assignment[record_to_final[i]] =
        static_cast<int>(components_.Find(i));
  }
  NormalizeClustering(&out.clustering, min_sup);
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

}  // namespace netclus
