#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "graph/accelerator.h"
#include "graph/network_distance.h"
#include "index/distance_cache.h"
#include "server/identity_map.h"

namespace netclus {
namespace {

constexpr size_t kWaitRingCapacity = 1 << 16;

// WAL page size: the storage stack's standard 4 KiB frame (128 records).
constexpr uint32_t kWalPageSize = 4096;

// Deadline-miss-rate degradation needs at least this many samples in
// the window before it can flip health — a couple of early misses on a
// cold server must not read as degradation.
constexpr size_t kMinHealthSamples = 16;

// Cold-start backpressure model: with no measured drain time yet,
// assume roughly this much work per queued request, spread across the
// workers. Deliberately rough; replaced by the measured mean after the
// first drain.
constexpr double kColdStartPerRequestMs = 0.05;

// Deadlines further out than this (~30 years) are clamped, so converting
// one to the steady clock's integer ticks cannot overflow.
constexpr double kMaxDeadlineMs = 1e12;

// Whether the publish oracles and served-batch replay run: on request,
// and always in -DNETCLUS_VALIDATE=ON builds.
bool ValidationOn(const QueryServerOptions& options) {
#if defined(NETCLUS_VALIDATE)
  (void)options;
  return true;
#else
  return options.validate_replay;
#endif
}

// The server-side accelerator: vacuous bounds plus the pinned epoch's
// exact point-pair cache, keyed on durable ObjectIds. The traversal
// hands over the epoch's dense point ids, so the accelerator translates
// through the epoch's IdentityMap before touching the cache — which is
// exactly what lets warm entries survive republication: the keys name
// physical objects, not epoch-relative slots. An entry is only reused
// across epochs when the publisher shared the cache (metric-preserving,
// point-only batches); any edge mutation publishes a fresh cache, so a
// hit can never return a distance the serving adjacency does not
// produce. Accelerated serving stays bit-identical to the pure
// unaccelerated replay — the cache only skips repeated work. `cache`
// may be null (caching disabled); `ids` null means identity.
class CacheOnlyAccelerator final : public DistanceAccelerator {
 public:
  CacheOnlyAccelerator(const DistanceCache* cache, const IdentityMap* ids)
      : cache_(cache), ids_(ids) {}

  bool LookupDistance(PointId a, PointId b, double* out) const override {
    if (cache_ == nullptr) return false;
    const ObjectId oa = ObjectOfPoint(ids_, a);
    const ObjectId ob = ObjectOfPoint(ids_, b);
    if (oa == kInvalidObjectId || ob == kInvalidObjectId) return false;
    return cache_->Lookup(oa, ob, out);
  }
  void StoreDistance(PointId a, PointId b, double dist) const override {
    if (cache_ == nullptr) return;
    const ObjectId oa = ObjectOfPoint(ids_, a);
    const ObjectId ob = ObjectOfPoint(ids_, b);
    if (oa == kInvalidObjectId || ob == kInvalidObjectId) return;
    cache_->Store(oa, ob, dist);
  }

 private:
  const DistanceCache* cache_;
  const IdentityMap* ids_;
};

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    Network net, PointSet points, const QueryServerOptions& options) {
  if (options.max_queue_depth == 0) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options.max_batch_size == 0) {
    return Status::InvalidArgument("max_batch_size must be >= 1");
  }
  // The live world keeps point placements in raw (re-buildable) form so
  // kAddPoint mutations compose with the initial population.
  std::vector<NetworkUpdate> raws;
  raws.reserve(points.size());
  for (size_t g = 0; g < points.num_groups(); ++g) {
    const PointSet::Group& grp = points.group(g);
    for (uint32_t i = 0; i < grp.count; ++i) {
      PointId p = grp.first + i;
      raws.push_back(
          NetworkUpdate::AddPoint(grp.u, grp.v, points.offset(p),
                                  points.label(p)));
    }
  }
  auto server = std::unique_ptr<QueryServer>(new QueryServer(
      std::move(net), std::move(raws), options));
  // Crash recovery happens before the first publish: the recovered
  // mutations are part of the boot world, so epoch 1 already serves
  // them. A corrupt log fails Start — no epoch is ever built from a
  // partially trusted record sequence.
  if (options.wal_file != nullptr || !options.wal_path.empty()) {
    NETCLUS_RETURN_IF_ERROR(server->RecoverFromWal());
  }
  // Epoch 1 publishes before any thread starts; a failing initial
  // clustering (or freeze) fails Start instead of leaving a server with
  // nothing to serve.
  NETCLUS_RETURN_IF_ERROR(server->PublishWorld());
  const NodeId num_nodes = server->net_.num_nodes();
  server->workers_.reserve(server->num_workers_);
  for (uint32_t w = 0; w < server->num_workers_; ++w) {
    server->workers_.emplace_back(
        [s = server.get(), num_nodes] { s->WorkerLoop(num_nodes); });
  }
  server->updater_ = std::thread([s = server.get()] { s->UpdaterLoop(); });
  return server;
}

QueryServer::QueryServer(Network net, std::vector<NetworkUpdate> raw_points,
                         const QueryServerOptions& options)
    : options_(options),
      net_(std::move(net)),
      raw_points_(std::move(raw_points)),
      recluster_ws_(net_.num_nodes()),
      num_workers_(ResolveNumThreads(options.num_workers)),
      chaos_stall_rng_(Rng::DeriveSeed(options.chaos.seed, 2)),
      chaos_publish_rng_(Rng::DeriveSeed(options.chaos.seed, 1)) {
  // Boot identity: points take ObjectIds 0..n-1 in their dense boot
  // order (the raws were extracted from the PointSet in group order, so
  // the boot epoch's identity map is exactly the identity permutation),
  // then edges take the next ids in canonical Edges() order. WAL replay
  // re-allocates from here deterministically, so an ObjectId survives a
  // crash even without a checkpoint.
  point_object_ids_.reserve(raw_points_.size());
  for (size_t i = 0; i < raw_points_.size(); ++i) {
    point_object_ids_.push_back(next_object_id_++);
  }
  for (const Edge& e : net_.Edges()) {
    edge_object_ids_[EdgeKeyOf(e.u, e.v)] = next_object_id_++;
  }
  wait_ring_.reserve(kWaitRingCapacity);
  outcome_ring_.assign(options_.health_window, 0);
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::RecoverFromWal() {
  PagedFile* file = options_.wal_file;
  if (file == nullptr) {
    NETCLUS_ASSIGN_OR_RETURN(
        owned_wal_file_,
        PagedFile::Open(options_.wal_path, kWalPageSize, /*truncate=*/false));
    file = owned_wal_file_.get();
  }
  NETCLUS_ASSIGN_OR_RETURN(wal_, MutationWal::Open(file));

  // The checkpoint store opens whenever one can exist: injected slot
  // files, or a path-backed WAL (a previous run may have checkpointed
  // even if this run's wal_checkpoint_every is 0 — a compacted log is
  // unusable without its checkpoint).
  if (options_.checkpoint_file_a != nullptr ||
      options_.checkpoint_file_b != nullptr) {
    if (options_.checkpoint_file_a == nullptr ||
        options_.checkpoint_file_b == nullptr) {
      return Status::InvalidArgument(
          "checkpoint_file_a/b must be set together");
    }
    checkpoints_ = std::make_unique<CheckpointStore>(
        options_.checkpoint_file_a, options_.checkpoint_file_b);
  } else if (!options_.wal_path.empty()) {
    NETCLUS_ASSIGN_OR_RETURN(
        checkpoints_, CheckpointStore::Open(options_.wal_path, kWalPageSize));
  }

  // Recovery order: newest durable checkpoint first (it replaces the
  // caller-provided base world), then the uncovered log suffix on top.
  uint64_t skip = 0;
  bool from_checkpoint = false;
  if (checkpoints_ != nullptr) {
    CheckpointState state;
    bool found = false;
    NETCLUS_RETURN_IF_ERROR(checkpoints_->ReadLatest(&state, &found));
    if (found) {
      if (state.covers_seq < wal_->start_seq()) {
        // The log was compacted past what this checkpoint covers — a
        // newer checkpoint must have existed and is gone. Refuse to
        // guess the gap.
        return Status::Corruption(
            "wal: log starts at seq " + std::to_string(wal_->start_seq()) +
            " but the newest checkpoint only covers seq " +
            std::to_string(state.covers_seq));
      }
      NETCLUS_RETURN_IF_ERROR(RestoreFromCheckpoint(state));
      ckpt_generation_ = state.generation;
      skip = state.covers_seq - wal_->start_seq();
      if (skip > wal_->recovery().records.size()) {
        skip = wal_->recovery().records.size();
      }
      from_checkpoint = true;
      MutexLock lock(&stats_mu_);
      wal_checkpoint_covers_ = state.covers_seq;
    }
  }
  if (!from_checkpoint && wal_->start_seq() > 0) {
    return Status::Corruption(
        "wal: log was compacted (starts at seq " +
        std::to_string(wal_->start_seq()) +
        ") but no valid covering checkpoint exists");
  }

  const std::vector<NetworkUpdate>& records = wal_->recovery().records;
  for (size_t i = static_cast<size_t>(skip); i < records.size(); ++i) {
    Status applied = ApplyToWorld(records[i]);
    // Records are logged before they are applied, so a mutation the
    // live server rejected (kInvalidArgument) is in the log too — and
    // replaying it fails identically, reproducing the same world. Any
    // other failure is a real recovery error.
    if (!applied.ok() && !applied.IsInvalidArgument()) return applied;
  }
  {
    // Start is single-threaded here, but wal_recovered_ lives with the
    // serving statistics, so it is written under their lock like
    // everything else the analysis guards.
    MutexLock lock(&stats_mu_);
    wal_recovered_ = records.size() - static_cast<size_t>(skip);
    wal_recovered_from_checkpoint_ = from_checkpoint;
  }
  return Status::OK();
}

Status QueryServer::RestoreFromCheckpoint(const CheckpointState& state) {
  if (state.num_nodes != net_.num_nodes()) {
    return Status::Corruption(
        "checkpoint names " + std::to_string(state.num_nodes) +
        " nodes but the boot network has " +
        std::to_string(net_.num_nodes()) +
        " (node count is fixed at Start)");
  }
  Network restored(state.num_nodes);
  edge_object_ids_.clear();
  edge_object_ids_.reserve(state.edges.size());
  for (const CheckpointEdge& e : state.edges) {
    NETCLUS_RETURN_IF_ERROR(restored.AddEdge(e.u, e.v, e.weight));
    edge_object_ids_[EdgeKeyOf(e.u, e.v)] = e.oid;
  }
  net_ = std::move(restored);
  raw_points_.clear();
  raw_points_.reserve(state.points.size());
  point_object_ids_.clear();
  point_object_ids_.reserve(state.points.size());
  for (const CheckpointPoint& p : state.points) {
    raw_points_.push_back(NetworkUpdate::AddPoint(p.u, p.v, p.offset,
                                                  p.label));
    point_object_ids_.push_back(p.oid);
  }
  next_object_id_ = state.next_object_id;
  return Status::OK();
}

CheckpointState QueryServer::BuildCheckpointState() const {
  CheckpointState state;
  state.covers_seq = wal_->next_seq();
  state.next_object_id = next_object_id_;
  state.num_nodes = net_.num_nodes();
  std::vector<Edge> edges = net_.Edges();
  state.edges.reserve(edges.size());
  for (const Edge& e : edges) {
    auto it = edge_object_ids_.find(EdgeKeyOf(e.u, e.v));
    const ObjectId oid =
        it != edge_object_ids_.end() ? it->second : kInvalidObjectId;
    state.edges.push_back(CheckpointEdge{e.u, e.v, e.weight, oid});
  }
  state.points.reserve(raw_points_.size());
  for (size_t i = 0; i < raw_points_.size(); ++i) {
    const NetworkUpdate& p = raw_points_[i];
    state.points.push_back(CheckpointPoint{p.u, p.v, p.value, p.label,
                                           point_object_ids_[i]});
  }
  return state;
}

void QueryServer::MaybeCheckpoint() {
  if (wal_ == nullptr || checkpoints_ == nullptr ||
      options_.wal_checkpoint_every == 0 || wal_->broken()) {
    return;
  }
  if (wal_->num_records() < options_.wal_checkpoint_every) return;
  // Order is the crash-safety argument: the checkpoint is durable
  // BEFORE the log shrinks. A crash after Write but before TruncateTo
  // just replays records the checkpoint already covers (replay is
  // idempotent: it skips the covered prefix).
  CheckpointState state = BuildCheckpointState();
  state.generation = ckpt_generation_ + 1;
  Status written = checkpoints_->Write(state);
  if (!written.ok()) {
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  ckpt_generation_ = state.generation;
  Status truncated = wal_->TruncateTo(state.covers_seq);
  if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
  if (!truncated.ok()) {
    // The checkpoint is durable; only the log is still long. The next
    // cycle retries the truncate (via a fresh checkpoint generation).
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  MutexLock lock(&stats_mu_);
  ++checkpoints_written_;
  wal_checkpoint_covers_ = state.covers_seq;
}

Result<PointSet> QueryServer::BuildPoints(
    const PointSet* base, std::vector<PointId>* raw_to_final) const {
  const size_t known = base != nullptr ? base->size() : 0;
  PointSetBuilder builder;
  for (size_t i = known; i < raw_points_.size(); ++i) {
    const NetworkUpdate& p = raw_points_[i];
    builder.Add(p.u, p.v, p.value, p.label);
  }
  if (base == nullptr) return std::move(builder).Build(net_, raw_to_final);

  // raw_points_ only grows, so the base holds exactly raw points
  // [0, known), and the last publish's mapping says where each landed.
  NETCLUS_DCHECK(published_raw_to_final_.size() == known)
      << "merge base out of step with the published mapping";
  std::vector<PointId> base_to_final;
  std::vector<PointId> added_to_final;
  NETCLUS_ASSIGN_OR_RETURN(
      PointSet merged,
      std::move(builder).Merge(net_, *base, &base_to_final, &added_to_final));
  raw_to_final->resize(raw_points_.size());
  for (size_t i = 0; i < known; ++i) {
    (*raw_to_final)[i] = base_to_final[published_raw_to_final_[i]];
  }
  std::copy(added_to_final.begin(), added_to_final.end(),
            raw_to_final->begin() + static_cast<std::ptrdiff_t>(known));
  if (ValidationOn(options_)) {
    // The oracle: a from-scratch build over every raw point must be
    // byte-for-byte the merged set, and map every raw point alike. A
    // divergence fails the publish; the base does not advance.
    std::vector<PointId> full_raw_to_final;
    NETCLUS_ASSIGN_OR_RETURN(PointSet full,
                             BuildPoints(nullptr, &full_raw_to_final));
    if (!merged.BitIdenticalTo(full) || *raw_to_final != full_raw_to_final) {
      return Status::Internal("merged PointSet diverged from full build");
    }
  }
  return merged;
}

Status QueryServer::PublishWorld(const std::vector<NetworkUpdate>* batch) {
  const double start_seconds = clock_.ElapsedSeconds();
  // An incremental publish builds on the last published epoch: its
  // PointSet is the merge base and its CSR rows the splice source.
  std::shared_ptr<const EpochSnapshot> prev = epochs_.Current();
  const bool incremental =
      batch != nullptr && options_.incremental_publish && prev != nullptr;

  std::vector<PointId> raw_to_final;
  NETCLUS_ASSIGN_OR_RETURN(
      PointSet ps,
      BuildPoints(incremental ? &prev->points() : nullptr, &raw_to_final));
  auto points = std::make_shared<const PointSet>(std::move(ps));

  // The epoch's identity map: dense point p was raw point i, so it
  // carries raw point i's stable ObjectId.
  std::vector<ObjectId> object_of_point(point_object_ids_.size(),
                                        kInvalidObjectId);
  for (size_t i = 0; i < raw_to_final.size(); ++i) {
    object_of_point[raw_to_final[i]] = point_object_ids_[i];
  }
  auto ids = std::make_shared<const IdentityMap>(std::move(object_of_point));
  const double points_end_seconds = clock_.ElapsedSeconds();

  InMemoryNetworkView live_view(net_, *points);

  // Incremental splice: only the rows of nodes an AddEdge touched are
  // re-materialized — every other CSR row is copied verbatim from the
  // retiring snapshot.
  bool metric_changed = batch == nullptr;
  std::vector<char> dirty;
  if (incremental) dirty.assign(net_.num_nodes(), 0);
  if (batch != nullptr) {
    for (const NetworkUpdate& upd : *batch) {
      if (upd.kind != NetworkUpdate::Kind::kAddEdge) continue;
      metric_changed = true;
      if (incremental) {
        if (upd.u < net_.num_nodes()) dirty[upd.u] = 1;
        if (upd.v < net_.num_nodes()) dirty[upd.v] = 1;
      }
    }
  }
  FrozenGraph fg;
  if (incremental) {
    fg = FrozenGraph::MaterializeIncremental(live_view, prev->frozen(), dirty);
    NETCLUS_RETURN_IF_ERROR(live_view.status());
    if (ValidationOn(options_)) {
      // The oracle: a from-scratch rebuild must be byte-for-byte the
      // spliced one. A divergence fails the publish — queries keep
      // serving the last good epoch, never a mis-spliced one.
      FrozenGraph full = FrozenGraph::Materialize(live_view);
      NETCLUS_RETURN_IF_ERROR(live_view.status());
      if (!fg.BitIdenticalTo(full)) {
        return Status::Internal(
            "incremental publish diverged from full rebuild");
      }
    }
  } else {
    NETCLUS_ASSIGN_OR_RETURN(fg, live_view.Freeze());
  }
  auto graph = std::make_shared<const FrozenGraph>(std::move(fg));
  const double splice_end_seconds = clock_.ElapsedSeconds();

  std::shared_ptr<const ClusterOutput> clusters;
  bool recluster_incremental = false;
  double recluster_ms = 0.0;
  if (options_.cluster_spec.has_value()) {
    const double recluster_start = clock_.ElapsedSeconds();
    NETCLUS_ASSIGN_OR_RETURN(
        ClusterOutput out, Recluster(live_view, *graph, raw_to_final, batch,
                                     &recluster_incremental));
    recluster_ms = (clock_.ElapsedSeconds() - recluster_start) * 1e3;
    clusters = std::make_shared<const ClusterOutput>(std::move(out));
  }

  // Distance cache carry-over: the cache keys on ObjectId pairs, so its
  // entries stay correct for as long as the metric (edge set + weights)
  // is unchanged. A point-only batch therefore hands the SAME cache to
  // the new epoch — warm entries survive republication of untouched
  // regions — while any edge mutation (or a publish with no batch
  // provenance) replaces it fresh, so no batch can ever read a distance
  // the serving adjacency does not produce.
  if (options_.cache_capacity > 0 &&
      (metric_changed || live_cache_ == nullptr)) {
    live_cache_ =
        std::make_shared<const DistanceCache>(options_.cache_capacity);
  }
  prev.reset();
  epochs_.Publish(std::move(graph), std::move(points), std::move(clusters),
                  live_cache_, std::move(ids));
  // The merge base advances only here, with the epoch it describes; a
  // failed publish leaves both in place, so its points merge next time.
  published_raw_to_final_ = std::move(raw_to_final);

  const double publish_ms =
      (clock_.ElapsedSeconds() - start_seconds) * 1e3;
  {
    MutexLock lock(&stats_mu_);
    if (incremental) {
      ++publishes_incremental_;
      publish_incremental_ms_.Add(publish_ms);
    } else {
      ++publishes_full_;
      publish_full_ms_.Add(publish_ms);
    }
    publish_points_ms_.Add((points_end_seconds - start_seconds) * 1e3);
    publish_splice_ms_.Add((splice_end_seconds - points_end_seconds) * 1e3);
    if (options_.cluster_spec.has_value()) {
      ++(recluster_incremental ? reclusters_incremental_ : reclusters_full_);
      recluster_ms_.Add(recluster_ms);
    }
  }
  return Status::OK();
}

Result<ClusterOutput> QueryServer::Recluster(
    const NetworkView& view, const FrozenGraph& graph,
    const std::vector<PointId>& raw_to_final,
    const std::vector<NetworkUpdate>* batch, bool* incremental) {
  const ClusterSpec& spec = *options_.cluster_spec;
  *incremental = false;
  if (spec.algorithm != Algorithm::kEpsLink ||
      !options_.incremental_publish) {
    return RunClustering(view, spec);
  }
  const uint32_t min_sup = spec.eps_link.min_sup;
  const uint32_t num_raw = static_cast<uint32_t>(raw_to_final.size());
  if (batch == nullptr || !components_seeded_) {
    // Seed the forest from one full run at min_sup 1, so components
    // still too small to publish are kept: insert-only mutations can
    // grow them past min_sup later. Re-normalizing at the real min_sup
    // gives exactly what a run at that min_sup returns.
    ClusterSpec seed_spec = spec;
    seed_spec.eps_link.min_sup = 1;
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             RunClustering(view, seed_spec));
    components_ = UnionFind(num_raw);
    std::vector<uint32_t> first_raw(
        static_cast<size_t>(out.clustering.num_clusters), num_raw);
    for (uint32_t i = 0; i < num_raw; ++i) {
      const int label = out.clustering.assignment[raw_to_final[i]];
      uint32_t& first = first_raw[static_cast<size_t>(label)];
      if (first == num_raw) {
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
  components_.Grow(num_raw);
  std::vector<uint32_t> raw_of_point(num_raw);
  for (uint32_t i = 0; i < num_raw; ++i) raw_of_point[raw_to_final[i]] = i;
  TraversalWorkspace* ws = &recluster_ws_;

  // A new point links to every point within eps of it, new ones too.
  std::vector<RangeResult> near;
  for (uint32_t i = known; i < num_raw; ++i) {
    RangeQuery(view, graph, raw_to_final[i], eps, ws, &near);
    for (const RangeResult& r : near) {
      components_.Union(i, raw_of_point[r.id]);
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
  for (const NetworkUpdate& upd : *batch) {
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
        components_.Union(raw_of_point[a_star.id], raw_of_point[b.id]);
      }
    }
    for (const RangeResult& a : from_u) {
      if (a.dist + upd.value + b_star.dist <= eps) {
        components_.Union(raw_of_point[a.id], raw_of_point[b_star.id]);
      }
    }
  }

  // ε-Link numbers clusters by their smallest dense id and noise is a
  // matter of component size, so labelling each point by its root in
  // dense order and normalizing reproduces the full run's labels.
  ClusterOutput out;
  out.algorithm = Algorithm::kEpsLink;
  out.clustering.assignment.resize(num_raw);
  for (uint32_t i = 0; i < num_raw; ++i) {
    out.clustering.assignment[raw_to_final[i]] =
        static_cast<int>(components_.Find(i));
  }
  NormalizeClustering(&out.clustering, min_sup);
  out.wall_seconds = timer.ElapsedSeconds();
  *incremental = true;

  if (ValidationOn(options_) || spec.validate) {
    // The oracle: a full run must agree label for label. A divergence
    // fails the publish (the last good epoch keeps serving) and drops
    // the forest, so the next publish reseeds it from a full run.
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput full, RunClustering(view, spec));
    if (full.clustering.num_clusters != out.clustering.num_clusters ||
        full.clustering.assignment != out.clustering.assignment) {
      components_seeded_ = false;
      return Status::Internal(
          "incremental re-cluster diverged from full RunClustering");
    }
  }
  return out;
}

Status QueryServer::ApplyToWorld(const NetworkUpdate& update) {
  // Every successful apply allocates the object's stable ObjectId from
  // the monotone watermark. WAL replay runs the same single-threaded
  // sequence, so a crash/recover re-derives identical ids.
  switch (update.kind) {
    case NetworkUpdate::Kind::kAddEdge: {
      NETCLUS_RETURN_IF_ERROR(net_.AddEdge(update.u, update.v, update.value));
      edge_object_ids_[EdgeKeyOf(update.u, update.v)] = next_object_id_++;
      return Status::OK();
    }
    case NetworkUpdate::Kind::kAddPoint: {
      double w = net_.EdgeWeight(update.u, update.v);
      if (w < 0.0) {
        return Status::InvalidArgument("AddPoint: edge does not exist");
      }
      // Written so NaN fails the test: it compares false both ways.
      if (!(update.value >= 0.0 && update.value <= w)) {
        return Status::InvalidArgument("AddPoint: offset outside edge");
      }
      raw_points_.push_back(update);
      point_object_ids_.push_back(next_object_id_++);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

std::future<Result<QueryResponse>> QueryServer::Submit(
    const QueryRequest& req) {
  PendingQuery pq;
  pq.req = req;
  pq.enqueue_seconds = clock_.ElapsedSeconds();
  std::future<Result<QueryResponse>> fut = pq.promise.get_future();

  // Health probes bypass admission control entirely: they must stay
  // answerable exactly when the queue is full or the server is
  // degraded, and they never cost a worker.
  if (req.kind == QueryKind::kHealthz) {
    QueryResponse resp;
    resp.kind = QueryKind::kHealthz;
    resp.health = CurrentHealth();
    resp.epoch = epochs_.current_epoch();
    pq.promise.set_value(std::move(resp));
    return fut;
  }

  if (req.deadline_ms > 0.0 && std::isfinite(req.deadline_ms)) {
    pq.deadline =
        TraversalCancel::Clock::now() +
        std::chrono::duration_cast<TraversalCancel::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::min(req.deadline_ms, kMaxDeadlineMs)));
  }

  MutexLock lock(&queue_mu_);
  if (stopping_) {
    lock.Unlock();
    pq.promise.set_value(Status::Unavailable("query server is stopping"));
    MutexLock slock(&stats_mu_);
    ++rejected_;
    return fut;
  }
  if (queue_.size() >= options_.max_queue_depth) {
    // Backpressure: reject now with a retry-after hint. Warm, the hint
    // is the measured mean drain duration times the rounds of full
    // drains the backlog represents, the workers draining in parallel;
    // cold (nothing drained yet, so no measured rate) it is a depth- and
    // worker-aware model instead of a blind constant. Clients read the
    // structured field; the text echo is for humans and logs.
    const double depth = static_cast<double>(queue_.size());
    double retry_ms;
    {
      // queue_mu_ (rank 30) -> stats_mu_ (rank 90): the one sanctioned
      // nesting between the serving locks.
      MutexLock slock(&stats_mu_);
      ++rejected_;
      const double workers = static_cast<double>(num_workers_);
      if (batch_ms_.count() > 0) {
        const double rounds_queued = std::max(
            1.0,
            std::ceil(depth / (static_cast<double>(options_.max_batch_size) *
                               workers)));
        retry_ms = batch_ms_.mean() * rounds_queued;
      } else {
        retry_ms = std::max(0.1, kColdStartPerRequestMs * depth / workers);
      }
    }
    lock.Unlock();
    pq.promise.set_value(Status::UnavailableWithRetry(
        "query queue full (" + std::to_string(options_.max_queue_depth) +
            " deep); retry after ~" + std::to_string(retry_ms) + " ms",
        retry_ms));
    return fut;
  }
  queue_.push_back(std::move(pq));
  lock.Unlock();
  {
    MutexLock slock(&stats_mu_);
    ++accepted_;
  }
  queue_cv_.NotifyOne();
  return fut;
}

Result<QueryResponse> QueryServer::Execute(const QueryRequest& req) {
  return Submit(req).get();
}

std::future<Status> QueryServer::SubmitUpdate(const NetworkUpdate& update) {
  PendingUpdate pu;
  pu.update = update;
  std::future<Status> fut = pu.promise.get_future();
  {
    MutexLock lock(&update_mu_);
    if (update_stopping_) {
      pu.promise.set_value(Status::Unavailable("query server is stopping"));
      return fut;
    }
    pu.seq = ++update_seq_;
    update_queue_.push_back(std::move(pu));
  }
  update_cv_.NotifyOne();
  return fut;
}

Status QueryServer::ApplyUpdate(const NetworkUpdate& update) {
  return SubmitUpdate(update).get();
}

Status QueryServer::Flush() {
  MutexLock lock(&update_mu_);
  const uint64_t target = update_seq_;
  while (published_seq_ < target) flush_cv_.Wait(&update_mu_);
  return last_publish_error_;
}

void QueryServer::Stop() {
  stopping_flag_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  {
    MutexLock lock(&update_mu_);
    update_stopping_ = true;
  }
  update_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (updater_.joinable()) updater_.join();
}

ServerHealth QueryServer::CurrentHealth() const {
  if (stopping_flag_.load(std::memory_order_relaxed)) {
    return ServerHealth::kStopping;
  }
  if (wal_broken_.load(std::memory_order_relaxed)) {
    return ServerHealth::kDegraded;
  }
  if (options_.degraded_publish_failures > 0 &&
      consecutive_publish_failures_.load(std::memory_order_relaxed) >=
          options_.degraded_publish_failures) {
    return ServerHealth::kDegraded;
  }
  if (options_.health_window > 0 && options_.degraded_miss_rate > 0.0) {
    MutexLock lock(&stats_mu_);
    const size_t samples =
        outcome_full_ ? outcome_ring_.size() : outcome_next_;
    if (samples >= kMinHealthSamples &&
        DeadlineMissRateLocked() >= options_.degraded_miss_rate) {
      return ServerHealth::kDegraded;
    }
  }
  return ServerHealth::kServing;
}

HealthReport QueryServer::Healthz() const {
  HealthReport report;
  report.health = CurrentHealth();
  report.epoch = epochs_.current_epoch();
  report.consecutive_publish_failures =
      consecutive_publish_failures_.load(std::memory_order_relaxed);
  report.wal_broken = wal_broken_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&stats_mu_);
    report.deadline_miss_rate = DeadlineMissRateLocked();
  }
  {
    MutexLock lock(&queue_mu_);
    report.queue_depth = queue_.size();
  }
  return report;
}

void QueryServer::RecordOutcomeLocked(bool deadline_missed) {
  if (outcome_ring_.empty()) return;
  if (outcome_full_ && outcome_ring_[outcome_next_] != 0) --outcome_misses_;
  outcome_ring_[outcome_next_] = deadline_missed ? 1 : 0;
  if (deadline_missed) ++outcome_misses_;
  if (++outcome_next_ == outcome_ring_.size()) {
    outcome_next_ = 0;
    outcome_full_ = true;
  }
}

double QueryServer::DeadlineMissRateLocked() const {
  const size_t samples = outcome_full_ ? outcome_ring_.size() : outcome_next_;
  if (samples == 0) return 0.0;
  return static_cast<double>(outcome_misses_) / static_cast<double>(samples);
}

void QueryServer::WorkerLoop(NodeId num_nodes) {
  TraversalWorkspace ws(num_nodes);
  ws.cancel.check_interval = options_.cancel_check_interval;
  for (;;) {
    std::vector<PendingQuery> batch;
    std::vector<PendingQuery> shed;
    double stall_ms = 0.0;
    {
      MutexLock lock(&queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(&queue_mu_);
      // Stopping with nothing queued: drained; accepted work always
      // finishes.
      if (queue_.empty()) return;
      // A shallow queue spreads across idle workers; a deep one is taken
      // max_batch_size at a time. Shed requests resolve with
      // kDeadlineExceeded right here, costing no execution, and never
      // count against the drain.
      const size_t take = std::min(
          options_.max_batch_size,
          (queue_.size() + num_workers_ - 1) / num_workers_);
      const TraversalCancel::Clock::time_point now =
          TraversalCancel::Clock::now();
      while (batch.size() < take && !queue_.empty()) {
        PendingQuery pq = std::move(queue_.front());
        queue_.pop_front();
        if (now >= pq.deadline) {
          shed.push_back(std::move(pq));
        } else {
          batch.push_back(std::move(pq));
        }
      }
      // Chaos: one draw per drain, in drain order (the queue lock
      // serializes the draws across workers).
      if (!batch.empty() && options_.chaos.worker_stall_prob > 0.0 &&
          chaos_stall_rng_.NextBernoulli(options_.chaos.worker_stall_prob)) {
        stall_ms = options_.chaos.worker_stall_ms;
      }
    }
    if (!shed.empty()) {
      {
        MutexLock slock(&stats_mu_);
        // Shed requests complete (with an error) — every accepted
        // request still resolves exactly once.
        completed_ += shed.size();
        deadline_expired_ += shed.size();
        for (size_t i = 0; i < shed.size(); ++i) RecordOutcomeLocked(true);
      }
      for (PendingQuery& pq : shed) {
        const double late_ms = std::chrono::duration<double, std::milli>(
                                   TraversalCancel::Clock::now() - pq.deadline)
                                   .count();
        pq.promise.set_value(Status::DeadlineExceeded(
            "deadline passed " + std::to_string(late_ms) +
            " ms ago while queued; request shed before execution"));
      }
    }
    if (!batch.empty()) ExecuteBatch(&batch, stall_ms, &ws);
  }
}

void QueryServer::ExecuteBatch(std::vector<PendingQuery>* batch,
                               double stall_ms, TraversalWorkspace* ws) {
  const double start_seconds = clock_.ElapsedSeconds();
  // Holding the shared_ptr is the pin: the epoch stays alive for this
  // drain even if the updater publishes a newer one meanwhile.
  std::shared_ptr<const EpochSnapshot> pinned = epochs_.Current();
  if (pinned == nullptr) {
    for (PendingQuery& pq : *batch) {
      pq.promise.set_value(Status::Internal("no epoch published"));
    }
    return;
  }
  const EpochSnapshot& snap = *pinned;
  CacheOnlyAccelerator accel(snap.cache(), snap.ids());
  if (stall_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall_ms));
  }
  const ServerHealth health = CurrentHealth();

  const size_t n = batch->size();
  std::vector<QueryResponse> responses(n);
  std::vector<Status> statuses(n, Status::OK());
  for (size_t i = 0; i < n; ++i) {
    PendingQuery& pq = (*batch)[i];
    // The workspace is this worker's alone, so the token only has to be
    // re-armed per request (kNoDeadline leaves it inert).
    ws->cancel.deadline = pq.deadline;
    statuses[i] = ExecuteQueryInto(snap.view(), &snap.frozen(), pq.req, ws,
                                   &accel, snap.clusters(), &responses[i],
                                   snap.ids());
    responses[i].epoch = snap.epoch();
    responses[i].health = health;
  }

  if (ValidationOn(options_)) {
    std::vector<QueryRequest> ok_requests;
    std::vector<QueryResponse> ok_responses;
    for (size_t i = 0; i < n; ++i) {
      if (statuses[i].ok()) {
        ok_requests.push_back((*batch)[i].req);
        ok_responses.push_back(responses[i]);
      }
    }
    Status verdict = ValidateServedBatch(snap.view(), &snap.frozen(),
                                         ok_requests, ok_responses,
                                         snap.clusters(), snap.ids());
    {
      MutexLock lock(&stats_mu_);
      ++replay_batches_;
      if (!verdict.ok()) ++replay_mismatches_;
    }
    if (!verdict.ok()) {
      // A divergence means the served epoch path computed something the
      // direct path would not — never hand that out as an answer.
      for (size_t i = 0; i < n; ++i) {
        if (statuses[i].ok()) statuses[i] = verdict;
      }
    }
  }

  // Count the drain before fulfilling its promises: a client holding a
  // response must already be visible in stats().completed.
  const double end_seconds = clock_.ElapsedSeconds();
  {
    MutexLock lock(&stats_mu_);
    ++batches_;
    completed_ += n;
    batch_size_.Add(static_cast<double>(n));
    batch_ms_.Add((end_seconds - start_seconds) * 1e3);
    for (size_t i = 0; i < n; ++i) {
      const bool missed = statuses[i].IsDeadlineExceeded();
      if (missed) ++cancelled_traversals_;
      RecordOutcomeLocked(missed);
    }
    for (const PendingQuery& pq : *batch) {
      double wait_ms = (start_seconds - pq.enqueue_seconds) * 1e3;
      queue_wait_ms_.Add(wait_ms);
      if (wait_ring_.size() < kWaitRingCapacity) {
        wait_ring_.push_back(wait_ms);
      } else {
        wait_ring_[wait_ring_next_] = wait_ms;
        wait_ring_next_ = (wait_ring_next_ + 1) % kWaitRingCapacity;
      }
    }
  }

  // Let go of the epoch before fulfilling too: a drain that outlived
  // its epoch frees it here, so a client holding a response never sees
  // that epoch counted as retired.
  pinned.reset();
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i].ok()) {
      (*batch)[i].promise.set_value(std::move(responses[i]));
    } else {
      (*batch)[i].promise.set_value(statuses[i]);
    }
  }
}

void QueryServer::UpdaterLoop() {
  for (;;) {
    std::vector<PendingUpdate> batch;
    {
      MutexLock lock(&update_mu_);
      while (!update_stopping_ && update_queue_.empty()) {
        update_cv_.Wait(&update_mu_);
      }
      if (update_queue_.empty()) {
        if (update_stopping_) return;
        continue;
      }
      batch.reserve(update_queue_.size());
      while (!update_queue_.empty()) {
        batch.push_back(std::move(update_queue_.front()));
        update_queue_.pop_front();
      }
    }
    // Apply every queued mutation, then publish once: bursts of updates
    // coalesce into a single epoch swap. With a WAL configured each
    // mutation is logged durably *before* it touches the live world —
    // the recovery invariant is "everything applied is in the log".
    uint64_t max_seq = 0;
    bool mutated = false;
    uint64_t logged = 0;
    for (PendingUpdate& pu : batch) {
      max_seq = pu.seq;
      if (wal_ != nullptr) {
        Status durable = wal_->Append(pu.update);
        if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
        if (!durable.ok()) {
          // Not durable → not applied. The caller sees the storage
          // error; the server keeps serving (degraded when the log is
          // broken) but refuses to advance the world past the log.
          pu.promise.set_value(std::move(durable));
          continue;
        }
        ++logged;
      }
      Status applied = ApplyToWorld(pu.update);
      if (applied.ok()) {
        mutated = true;
        unpublished_.push_back(pu.update);
      }
      pu.promise.set_value(std::move(applied));
    }
    if (logged > 0) {
      MutexLock lock(&stats_mu_);
      wal_records_ += logged;
    }
    Status publish = Status::OK();
    if (mutated) {
      if (options_.chaos.publish_failure_prob > 0.0 &&
          chaos_publish_rng_.NextBernoulli(
              options_.chaos.publish_failure_prob)) {
        publish = Status::Internal("chaos: injected publish failure");
      } else {
        publish = PublishWorld(&unpublished_);
      }
      if (publish.ok()) {
        unpublished_.clear();
        consecutive_publish_failures_.store(0, std::memory_order_relaxed);
        MaybeCheckpoint();
      } else {
        // The epoch manager was not touched: queries keep serving the
        // last good epoch, and the applied mutations stay in
        // unpublished_ to ride along with the next successful publish.
        consecutive_publish_failures_.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(&stats_mu_);
        ++publish_failures_;
      }
    }
    {
      MutexLock lock(&update_mu_);
      published_seq_ = max_seq;
      // Record the outcome of every publish attempt — a success clears a
      // previous failure so Flush() stops reporting it once the world is
      // re-published. Rounds that publish nothing leave it untouched.
      if (mutated) last_publish_error_ = publish;
    }
    flush_cv_.NotifyAll();
  }
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  {
    MutexLock lock(&stats_mu_);
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.batches = batches_;
    s.replay_batches = replay_batches_;
    s.replay_mismatches = replay_mismatches_;
    s.deadline_expired = deadline_expired_;
    s.cancelled_traversals = cancelled_traversals_;
    s.wal_records = wal_records_;
    s.wal_recoveries = wal_recovered_;
    s.publish_failures = publish_failures_;
    s.publishes_full = publishes_full_;
    s.publishes_incremental = publishes_incremental_;
    s.reclusters_full = reclusters_full_;
    s.reclusters_incremental = reclusters_incremental_;
    s.checkpoints_written = checkpoints_written_;
    s.checkpoint_failures = checkpoint_failures_;
    s.wal_recovered_from_checkpoint = wal_recovered_from_checkpoint_ ? 1 : 0;
    s.wal_checkpoint_covers = wal_checkpoint_covers_;
    s.mean_publish_full_ms = publish_full_ms_.mean();
    s.mean_publish_incremental_ms = publish_incremental_ms_.mean();
    s.mean_publish_points_ms = publish_points_ms_.mean();
    s.mean_publish_splice_ms = publish_splice_ms_.mean();
    s.mean_recluster_ms = recluster_ms_.mean();
    s.mean_queue_wait_ms = queue_wait_ms_.mean();
    s.max_queue_wait_ms = queue_wait_ms_.max();
    s.mean_batch_size = batch_size_.mean();
    s.max_batch_size = batch_size_.max();
    s.mean_batch_ms = batch_ms_.mean();
  }
  s.epochs_published = epochs_.epochs_published();
  s.epochs_drained = epochs_.epochs_drained();
  s.retired_epochs = epochs_.retired_count();
  {
    MutexLock lock(&queue_mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

std::vector<double> QueryServer::QueueWaitSamplesMs() const {
  MutexLock lock(&stats_mu_);
  return wait_ring_;
}

}  // namespace netclus
