#include "netclus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

#include "common/timer.h"
#include "core/validate.h"
#include "graph/frozen_graph.h"
#include "graph/network.h"

namespace netclus {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kKMedoids:
      return "kmedoids";
    case Algorithm::kEpsLink:
      return "epslink";
    case Algorithm::kSingleLink:
      return "singlelink";
    case Algorithm::kDbscan:
      return "dbscan";
  }
  return "unknown";
}

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm a : {Algorithm::kKMedoids, Algorithm::kEpsLink,
                      Algorithm::kSingleLink, Algorithm::kDbscan}) {
    if (name == AlgorithmName(a)) return a;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

namespace {

// The Single-Link flat-cut cascade documented on ClusterSpec.
Clustering CutDendrogram(const Dendrogram& dendrogram,
                         const ClusterSpec& spec) {
  if (spec.cut_distance > 0.0) {
    return dendrogram.CutAtDistance(spec.cut_distance, spec.cut_min_size);
  }
  if (std::isfinite(spec.single_link.stop_distance)) {
    return dendrogram.CutAtDistance(spec.single_link.stop_distance,
                                    spec.cut_min_size);
  }
  return dendrogram.CutAtCount(
      std::max<uint32_t>(1, spec.single_link.stop_cluster_count),
      spec.cut_min_size);
}

// The per-algorithm invariant validators of core/validate.h, dispatched
// over the finished output. Runs when the spec asks for it, and on every
// run in -DNETCLUS_VALIDATE=ON builds.
Status ValidateOutput(const NetworkView& view, const ClusterSpec& spec,
                      const ClusterOutput& out) {
  switch (spec.algorithm) {
    case Algorithm::kKMedoids:
      return ValidateKMedoids(view, out.clustering, out.medoids, out.cost);
    case Algorithm::kEpsLink:
      return ValidateEpsLink(view, out.clustering, spec.eps_link);
    case Algorithm::kSingleLink:
      NETCLUS_RETURN_IF_ERROR(ValidateClusteringShape(view, out.clustering));
      return ValidateDendrogram(*out.dendrogram, spec.single_link);
    case Algorithm::kDbscan:
      return ValidateDbscan(view, out.clustering, spec.dbscan);
  }
  return Status::OK();
}

}  // namespace

ClusterSpec MakeSpec(const KMedoidsOptions& options) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kKMedoids;
  spec.kmedoids = options;
  return spec;
}

ClusterSpec MakeSpec(const EpsLinkOptions& options) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link = options;
  return spec;
}

ClusterSpec MakeSpec(const DbscanOptions& options) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kDbscan;
  spec.dbscan = options;
  return spec;
}

ClusterSpec MakeSpec(const SingleLinkOptions& options, double cut_distance,
                     uint32_t cut_min_size) {
  ClusterSpec spec;
  spec.algorithm = Algorithm::kSingleLink;
  spec.single_link = options;
  spec.cut_distance = cut_distance;
  spec.cut_min_size = cut_min_size;
  return spec;
}

namespace {

// One run over the traversal graph RunClustering picked: a snapshot of
// an in-memory view, or the view itself. `timer` started with the run.
template <TraversalGraph Graph>
Result<ClusterOutput> RunOnGraph(const NetworkView& view, const Graph& graph,
                                 const ClusterSpec& spec,
                                 const WallTimer& timer) {
  ClusterOutput out;
  out.algorithm = spec.algorithm;
  switch (spec.algorithm) {
    case Algorithm::kKMedoids: {
      Result<KMedoidsResult> r =
          KMedoidsCluster(view, graph, spec.kmedoids);
      if (!r.ok()) return r.status();
      out.clustering = std::move(r.value().clustering);
      out.medoids = std::move(r.value().medoids);
      out.cost = r.value().cost;
      out.kmedoids_stats = r.value().stats;
      break;
    }
    case Algorithm::kEpsLink: {
      Result<Clustering> r = EpsLinkCluster(view, graph, spec.eps_link);
      if (!r.ok()) return r.status();
      out.clustering = std::move(r.value());
      break;
    }
    case Algorithm::kSingleLink: {
      Result<SingleLinkResult> r =
          SingleLinkCluster(view, graph, spec.single_link);
      if (!r.ok()) return r.status();
      out.clustering = CutDendrogram(r.value().dendrogram, spec);
      out.dendrogram = std::move(r.value().dendrogram);
      out.single_link_stats = r.value().stats;
      break;
    }
    case Algorithm::kDbscan: {
      Result<Clustering> r = DbscanCluster(view, graph, spec.dbscan);
      if (!r.ok()) return r.status();
      out.clustering = std::move(r.value());
      break;
    }
  }
  // Storage failures during the run (recorded by DiskNetworkView while
  // the algorithms consumed neutral fallback values) invalidate the
  // result: report the I/O error, never a silently wrong clustering.
  NETCLUS_RETURN_IF_ERROR(view.status());
#if defined(NETCLUS_VALIDATE)
  constexpr bool kAlwaysValidate = true;
#else
  constexpr bool kAlwaysValidate = false;
#endif
  if (spec.validate || kAlwaysValidate) {
    // A snapshot every traversal above ran over must be a faithful copy
    // of the view — checked first, since a corrupt snapshot would
    // invalidate the algorithm output audits below.
    if constexpr (std::is_same_v<Graph, FrozenGraph>) {
      NETCLUS_RETURN_IF_ERROR(ValidateFrozenGraph(view, graph));
    }
    NETCLUS_RETURN_IF_ERROR(ValidateOutput(view, spec, out));
    // The validators' own traversals may also have tripped a storage
    // error the algorithm's region never touched.
    NETCLUS_RETURN_IF_ERROR(view.status());
  }
  out.wall_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace

Result<ClusterOutput> RunClustering(const NetworkView& view,
                                    const ClusterSpec& spec) {
  // A view carrying a prior storage error would feed the algorithms
  // partial data; refuse up front.
  NETCLUS_RETURN_IF_ERROR(view.status());
  WallTimer timer;
  // An in-memory view is frozen once per run: every traversal of the
  // algorithm expands over the immutable CSR snapshot, shared read-only
  // across the thread pool, instead of paying virtual dispatch per
  // neighbor. Trajectories are bit-identical to the live-view path
  // (ValidateFrozenGraph re-proves the snapshot under validate mode). Any
  // other view is traversed directly, so a disk-backed run reads only the
  // pages its algorithm asks for.
  if (const InMemoryNetworkView* mem = view.AsInMemory()) {
    // The snapshot lives only within this call, so it borrows the view's
    // PointSet (an owner-less aliasing pointer) instead of copying it as
    // Freeze() does.
    const FrozenGraph frozen = FrozenGraph::Materialize(
        mem->network(), std::shared_ptr<const PointSet>(
                            std::shared_ptr<const PointSet>(), &mem->points()));
    return RunOnGraph(view, frozen, spec, timer);
  }
  return RunOnGraph(view, view, spec, timer);
}

Result<ClusterOutput> RunClustering(const NetworkView& view,
                                    const FrozenGraph& graph,
                                    const ClusterSpec& spec) {
  NETCLUS_RETURN_IF_ERROR(view.status());
  WallTimer timer;
  return RunOnGraph(view, graph, spec, timer);
}

}  // namespace netclus
