#include "core/kmedoids.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/dijkstra.h"
#include "graph/edge_points.h"
#include "graph/frozen_graph.h"

namespace netclus {

namespace {

struct QEntry {
  double dist;
  NodeId node;
  int med;
  bool operator>(const QEntry& other) const { return dist > other.dist; }
};
using MedHeap = std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>>;

// Shared machinery of Medoid_Dist_Find / Inc_Medoid_Update and the
// point-assignment scan, with O(|V|) rollback snapshots for rejected swaps.
//
// Templated on the traversal graph: `graph` is either the view itself
// (a disk-backed run) or a FrozenGraph snapshot of it (de-virtualized
// CSR walk). Point positions come from the view; neighbor iteration and
// edge weights go through the graph, and the assignment scan reads the
// points through it (graph/edge_points.h). Both instantiations expand
// in the same order, so trajectories (rng draws, accept/reject
// sequence, final medoids) are bit-identical.
template <typename Graph>
class KMedoidsEngine {
 public:
  KMedoidsEngine(const NetworkView& view, const Graph& graph)
      : view_(view),
        graph_(graph),
        node_med_(view.num_nodes(), -1),
        node_dist_(view.num_nodes(), kInfDist),
        reader_(graph) {}

  void SetMedoids(std::vector<PointId> medoids) {
    medoids_ = std::move(medoids);
    RefreshMedoidGeometry();
  }
  const std::vector<PointId>& medoids() const { return medoids_; }
  bool IsMedoid(PointId p) const { return medoid_set_.count(p) > 0; }

  /// Paper Fig. 4: concurrent Dijkstra from all medoids; every node ends
  /// up tagged with its nearest medoid and distance.
  void MedoidDistFind() {
    std::fill(node_med_.begin(), node_med_.end(), -1);
    std::fill(node_dist_.begin(), node_dist_.end(), kInfDist);
    MedHeap q;
    EnqueueMedoidSeeds(&q);
    ConcurrentExpansion(&q, /*allow_improve=*/false);
  }

  /// Paper Fig. 5: repair node tags after medoid slot `med_idx` changed
  /// its point (medoids_[med_idx] must already hold the new point).
  void IncMedoidUpdate(int med_idx) {
    // Unassign the replaced medoid's nodes first, then seed the frontier
    // from their neighbors that belong to surviving medoids.
    std::vector<NodeId> orphans;
    for (NodeId n = 0; n < view_.num_nodes(); ++n) {
      if (node_med_[n] == med_idx) {
        node_med_[n] = -1;
        node_dist_[n] = kInfDist;
        orphans.push_back(n);
      }
    }
    MedHeap q;
    for (NodeId n : orphans) {
      VisitNeighbors(graph_, n, [&](NodeId z, double w) {
        if (node_med_[z] >= 0) {
          q.push(QEntry{node_dist_[z] + w, n, node_med_[z]});
        }
      });
    }
    // Seed the new medoid's edge endpoints, and a surviving medoid's
    // endpoint the replaced medoid owned: the path along the medoid's own
    // edge reaches that orphan through no assigned neighbor.
    for (size_t i = 0; i < medoids_.size(); ++i) {
      const bool replaced = i == static_cast<size_t>(med_idx);
      const PointPos& pos = medoid_pos_[i];
      double w = medoid_edge_w_[i];
      const int med = static_cast<int>(i);
      if (replaced || node_med_[pos.u] < 0) {
        q.push(QEntry{pos.offset, pos.u, med});
      }
      if (replaced || node_med_[pos.v] < 0) {
        q.push(QEntry{w - pos.offset, pos.v, med});
      }
    }
    ConcurrentExpansion(&q, /*allow_improve=*/true);
  }

  /// Equation (1): assigns every point to its nearest medoid via either
  /// endpoint of its edge or directly along the edge; returns the
  /// evaluation function R.
  double AssignPoints(std::vector<int>* assignment) {
    assignment->assign(view_.num_points(), kNoise);
    double cost = 0.0;
    TraversalCounters& tc = LocalTraversalCounters();
    reader_.ForEachGroup([&](NodeId u, NodeId v, double w,
                             const EdgePointSpan& pts) {
      tc.points_examined += pts.count;
      double du = node_dist_[u], dv = node_dist_[v];
      int mu = node_med_[u], mv = node_med_[v];
      auto it = edge_medoids_.find(EdgeKeyOf(u, v));
      for (uint32_t i = 0; i < pts.count; ++i) {
        const double off = pts.offsets[i];
        const PointId id = pts.first + i;
        double best = kInfDist;
        int best_med = kNoise;
        if (mu >= 0 && du + off < best) {
          best = du + off;
          best_med = mu;
        }
        if (mv >= 0 && dv + (w - off) < best) {
          best = dv + (w - off);
          best_med = mv;
        }
        if (it != edge_medoids_.end()) {
          for (const auto& [mi, moff] : it->second) {
            double d = off > moff ? off - moff : moff - off;
            if (d < best) {
              best = d;
              best_med = mi;
            }
          }
        }
        (*assignment)[id] = best_med;
        if (best_med != kNoise) cost += best;
      }
    });
    return cost;
  }

  // Swap bookkeeping: snapshot before a tentative swap, restore on reject.
  void Snapshot() {
    snap_med_ = node_med_;
    snap_dist_ = node_dist_;
    snap_medoids_ = medoids_;
  }
  void Rollback() {
    node_med_ = snap_med_;
    node_dist_ = snap_dist_;
    medoids_ = snap_medoids_;
    RefreshMedoidGeometry();
  }

  void ReplaceMedoid(int med_idx, PointId p) {
    medoids_[med_idx] = p;
    RefreshMedoidGeometry();
  }

 private:
  void RefreshMedoidGeometry() {
    size_t k = medoids_.size();
    medoid_pos_.resize(k);
    medoid_edge_w_.resize(k);
    edge_medoids_.clear();
    medoid_set_.clear();
    for (size_t i = 0; i < k; ++i) {
      medoid_pos_[i] = view_.PointPosition(medoids_[i]);
      medoid_edge_w_[i] = graph_.EdgeWeight(medoid_pos_[i].u, medoid_pos_[i].v);
      edge_medoids_[EdgeKeyOf(medoid_pos_[i].u, medoid_pos_[i].v)]
          .emplace_back(static_cast<int>(i), medoid_pos_[i].offset);
      medoid_set_.insert(medoids_[i]);
    }
  }

  void EnqueueMedoidSeeds(MedHeap* q) {
    for (size_t i = 0; i < medoids_.size(); ++i) {
      const PointPos& pos = medoid_pos_[i];
      double w = medoid_edge_w_[i];
      q->push(QEntry{pos.offset, pos.u, static_cast<int>(i)});
      q->push(QEntry{w - pos.offset, pos.v, static_cast<int>(i)});
    }
  }

  // Fig. 4's Concurrent_Expansion; with `allow_improve` it also accepts
  // strictly closer re-assignments (the Fig. 5 variant).
  void ConcurrentExpansion(MedHeap* q, bool allow_improve) {
    TraversalCounters& tc = LocalTraversalCounters();
    while (!q->empty()) {
      QEntry b = q->top();
      q->pop();
      ++tc.heap_pops;
      bool take = node_med_[b.node] < 0 ||
                  (allow_improve && b.dist < node_dist_[b.node]);
      if (!take) continue;
      ++tc.settled_nodes;
      node_med_[b.node] = b.med;
      node_dist_[b.node] = b.dist;
      VisitNeighbors(graph_, b.node, [&](NodeId z, double w) {
        double nd = b.dist + w;
        if (node_med_[z] < 0 || (allow_improve && nd < node_dist_[z])) {
          q->push(QEntry{nd, z, b.med});
          ++tc.heap_pushes;
        }
      });
    }
  }

  const NetworkView& view_;
  const Graph& graph_;
  std::vector<PointId> medoids_;
  std::vector<int> node_med_;        // nearest medoid index per node
  std::vector<double> node_dist_;    // distance to it
  std::vector<PointPos> medoid_pos_;
  std::vector<double> medoid_edge_w_;
  std::unordered_map<uint64_t, std::vector<std::pair<int, double>>>
      edge_medoids_;
  std::unordered_set<PointId> medoid_set_;
  std::vector<int> snap_med_;
  std::vector<double> snap_dist_;
  std::vector<PointId> snap_medoids_;
  EdgePointReader<Graph> reader_;
};

template <typename Graph>
Result<KMedoidsResult> RunOnce(const NetworkView& view, const Graph& graph,
                               const KMedoidsOptions& options,
                               std::vector<PointId> initial, Rng* rng) {
  uint32_t k = static_cast<uint32_t>(initial.size());
  WallTimer total_timer;
  KMedoidsEngine<Graph> engine(view, graph);
  engine.SetMedoids(std::move(initial));

  KMedoidsResult result;
  WallTimer timer;
  engine.MedoidDistFind();
  std::vector<int> assignment;
  double cost = engine.AssignPoints(&assignment);
  result.stats.first_iteration_seconds = timer.ElapsedSeconds();

  uint32_t unsuccessful = 0;
  double swap_seconds_sum = 0.0;
  std::vector<int> tentative;
  // With k == N every point is a medoid and no swap candidate exists.
  while (k < view.num_points() &&
         unsuccessful < options.max_unsuccessful_swaps &&
         result.stats.attempted_swaps < options.max_swaps) {
    ++result.stats.attempted_swaps;
    int med_idx = static_cast<int>(rng->NextBounded(k));
    PointId candidate;
    do {
      candidate = static_cast<PointId>(rng->NextBounded(view.num_points()));
    } while (engine.IsMedoid(candidate));

    timer.Restart();
    engine.Snapshot();
    engine.ReplaceMedoid(med_idx, candidate);
    if (options.incremental_updates) {
      engine.IncMedoidUpdate(med_idx);
    } else {
      engine.MedoidDistFind();
    }
    double new_cost = engine.AssignPoints(&tentative);
    swap_seconds_sum += timer.ElapsedSeconds();

    if (new_cost < cost) {
      cost = new_cost;
      assignment.swap(tentative);
      unsuccessful = 0;
      ++result.stats.committed_swaps;
    } else {
      engine.Rollback();
      ++unsuccessful;
    }
  }
  if (result.stats.attempted_swaps > 0) {
    result.stats.avg_swap_seconds =
        swap_seconds_sum / result.stats.attempted_swaps;
  }
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  result.cost = cost;
  result.medoids = engine.medoids();
  result.clustering.assignment = std::move(assignment);
  result.clustering.num_clusters = static_cast<int>(k);
  return result;
}

}  // namespace

template <TraversalGraph Graph>
Result<KMedoidsResult> KMedoidsCluster(const NetworkView& view,
                                       const Graph& graph,
                                       const KMedoidsOptions& options) {
  const bool fixed_initial = !options.initial_medoids.empty();
  if (fixed_initial) {
    if (options.initial_medoids.size() > view.num_points()) {
      return Status::InvalidArgument(
          "initial medoid set size must be in [1, N]");
    }
    std::unordered_set<PointId> seen;
    for (PointId p : options.initial_medoids) {
      if (p >= view.num_points()) {
        return Status::InvalidArgument("initial medoid id out of range");
      }
      if (!seen.insert(p).second) {
        return Status::InvalidArgument("duplicate initial medoid " +
                                       std::to_string(p));
      }
    }
  } else if (options.k == 0 || options.k > view.num_points()) {
    return Status::InvalidArgument("k must be in [1, N]");
  }
  const uint32_t restarts =
      fixed_initial ? 1 : std::max<uint32_t>(1, options.num_restarts);

  // One restart per task. Restart r draws from Rng(DeriveSeed(seed, r)),
  // so its whole trajectory (initial sample + swap sequence) is a pure
  // function of (view, options, r) — independent of scheduling. Only a
  // snapshot is shared across workers: a NetworkView may be disk-backed,
  // and its buffer manager is not thread-safe, so restarts over a view
  // run serially.
  std::vector<Result<KMedoidsResult>> runs(
      restarts, Status::Internal("restart did not run"));
  std::vector<TraversalCounters> work(restarts);
  uint32_t threads =
      std::min<uint32_t>(ResolveNumThreads(options.num_threads), restarts);
  if constexpr (!std::is_same_v<Graph, FrozenGraph>) threads = 1;
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  ParallelFor(pool ? &*pool : nullptr, restarts, [&](size_t r, uint32_t) {
    const TraversalCounters before = LocalTraversalCounters();
    Rng rng(Rng::DeriveSeed(options.seed, r));
    std::vector<PointId> initial;
    if (fixed_initial) {
      initial = options.initial_medoids;
    } else {
      std::vector<uint64_t> sample =
          rng.SampleWithoutReplacement(view.num_points(), options.k);
      initial.assign(sample.begin(), sample.end());
    }
    runs[r] = RunOnce(view, graph, options, std::move(initial), &rng);
    work[r] = LocalTraversalCounters() - before;
  });
  // Pool workers bumped their own thread-local counters; credit the
  // calling thread with them, so a caller's diff counts every restart at
  // any thread count (a serial run already counted them here).
  if (pool) {
    TraversalCounters& tc = LocalTraversalCounters();
    for (const TraversalCounters& w : work) tc = tc + w;
  }

  // Deterministic reduction: lowest cost wins, ties broken by lowest
  // restart index; total_seconds aggregates every restart's work.
  Result<KMedoidsResult> best = Status::Internal("no restart ran");
  double total_seconds = 0.0;
  for (uint32_t r = 0; r < restarts; ++r) {
    if (!runs[r].ok()) return runs[r];
    total_seconds += runs[r].value().stats.total_seconds;
    if (!best.ok() || runs[r].value().cost < best.value().cost) {
      best = std::move(runs[r]);
    }
  }
  best.value().stats.total_seconds = total_seconds;
  return best;
}

template <TraversalGraph Graph>
Result<KMedoidsResult> AssignToMedoids(const NetworkView& view,
                                       const Graph& graph,
                                       const std::vector<PointId>& medoids) {
  if (medoids.empty()) {
    return Status::InvalidArgument("medoid set must be non-empty");
  }
  KMedoidsEngine<Graph> engine(view, graph);
  engine.SetMedoids(medoids);
  engine.MedoidDistFind();
  KMedoidsResult result;
  result.cost = engine.AssignPoints(&result.clustering.assignment);
  result.medoids = medoids;
  result.clustering.num_clusters = static_cast<int>(medoids.size());
  return result;
}

template Result<KMedoidsResult> KMedoidsCluster(const NetworkView&,
                                                const FrozenGraph&,
                                                const KMedoidsOptions&);
template Result<KMedoidsResult> KMedoidsCluster(const NetworkView&,
                                                const NetworkView&,
                                                const KMedoidsOptions&);
template Result<KMedoidsResult> AssignToMedoids(const NetworkView&,
                                                const FrozenGraph&,
                                                const std::vector<PointId>&);
template Result<KMedoidsResult> AssignToMedoids(const NetworkView&,
                                                const NetworkView&,
                                                const std::vector<PointId>&);

}  // namespace netclus
