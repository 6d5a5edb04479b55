// netclus.h — the single entry point into the clustering library.
//
// Callers describe the run declaratively with a ClusterSpec (an algorithm
// tag plus that algorithm's options) and invoke RunClustering, which
// dispatches to the per-algorithm engine and returns one unified
// ClusterOutput: a flat Clustering, the dendrogram when the algorithm is
// hierarchical, per-run statistics, and the wall time.
//
// MakeSpec() below turns an algorithm's options struct into a
// one-algorithm spec. The per-algorithm engines (KMedoidsCluster,
// EpsLinkCluster, DbscanCluster, SingleLinkCluster) each take the
// traversal graph explicitly; RunClustering picks it — a FrozenGraph
// snapshot of an in-memory view, or the view itself.
#ifndef NETCLUS_NETCLUS_H_
#define NETCLUS_NETCLUS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"
#include "core/dbscan.h"
#include "core/dendrogram.h"
#include "core/eps_link.h"
#include "core/kmedoids.h"
#include "core/single_link.h"
#include "graph/network_view.h"
#include "index/distance_index.h"

namespace netclus {

/// The clustering algorithms RunClustering dispatches over.
enum class Algorithm {
  kKMedoids,    ///< partitioning (paper §4.2)
  kEpsLink,     ///< density-based, single traversal per cluster (§4.3.1)
  kSingleLink,  ///< hierarchical, exact dendrogram (§4.4)
  kDbscan,      ///< density-based baseline, range query per point (§4.3)
};

/// Stable lower-case name of `a` ("kmedoids", "epslink", "singlelink",
/// "dbscan") — the vocabulary of netclus_cli's --algo flag.
const char* AlgorithmName(Algorithm a);

/// Inverse of AlgorithmName; InvalidArgument on unknown names.
Result<Algorithm> ParseAlgorithm(const std::string& name);

/// \brief One clustering run, declaratively: which algorithm plus its
/// options. Only the options of the selected algorithm are read.
struct ClusterSpec {
  Algorithm algorithm = Algorithm::kEpsLink;

  KMedoidsOptions kmedoids;
  EpsLinkOptions eps_link;
  SingleLinkOptions single_link;
  DbscanOptions dbscan;

  /// Single-Link only: distance at which the dendrogram is cut into the
  /// flat `ClusterOutput::clustering`. <= 0 falls back to
  /// `single_link.stop_distance` when that is finite, else to a cut at
  /// `single_link.stop_cluster_count` clusters.
  double cut_distance = 0.0;
  /// Single-Link only: flat-cut components smaller than this become
  /// noise (ε-Link's min_sup analogue).
  uint32_t cut_min_size = 1;

  /// Re-verify the run's invariants (core/validate.h) before returning:
  /// k-medoids nearest-medoid tags against independent Dijkstra, ε-Link
  /// ε-connectivity/ε-separation, Single-Link merge monotonicity +
  /// union-find replay, DBSCAN partition axioms. A violation surfaces as
  /// Status::Internal instead of a wrong clustering. Builds configured
  /// with -DNETCLUS_VALIDATE=ON validate every run regardless of this
  /// flag.
  bool validate = false;

  /// Inert: RunClustering reads no field of it and builds no index for
  /// any spec. Kept only because perfbench sets it.
  IndexOptions index;
};

/// \brief The unified result of RunClustering.
struct ClusterOutput {
  Algorithm algorithm = Algorithm::kEpsLink;
  /// Flat clustering — every algorithm produces one (Single-Link via the
  /// spec's cut rule).
  Clustering clustering;
  /// Merge history; present for hierarchical algorithms (Single-Link).
  std::optional<Dendrogram> dendrogram;

  // Per-run statistics; populated by the producing algorithm.
  std::vector<PointId> medoids;   ///< k-medoids: final medoid point ids
  double cost = 0.0;              ///< k-medoids: evaluation function R
  KMedoidsStats kmedoids_stats;   ///< k-medoids only
  SingleLinkStats single_link_stats;  ///< Single-Link only
  IndexStats index_stats;  ///< inert, always zero; kept only for perfbench

  /// Wall time of the whole run (including the flat cut).
  double wall_seconds = 0.0;
};

/// One-algorithm ClusterSpec from an options struct, for
/// RunClustering(view, MakeSpec(opts)). Every other spec field keeps its
/// default (no validate).
ClusterSpec MakeSpec(const KMedoidsOptions& options);
ClusterSpec MakeSpec(const EpsLinkOptions& options);
ClusterSpec MakeSpec(const DbscanOptions& options);
/// Single-Link: `cut_distance` / `cut_min_size` ride along into the
/// spec's flat-cut rule (defaults mean "cut at stop_distance when
/// finite, else at stop_cluster_count clusters").
ClusterSpec MakeSpec(const SingleLinkOptions& options,
                     double cut_distance = 0.0, uint32_t cut_min_size = 1);

/// Runs the algorithm selected by `spec` over `view`: an in-memory view
/// (NetworkView::AsInMemory()) is frozen once and the run traverses the
/// snapshot; any other view is traversed directly, so a disk-backed run
/// reads only the pages its algorithm asks for. Fallible options surface
/// as the same Status the per-algorithm engine returns.
/// RunClustering is also the storage-failure boundary: `view.status()` is
/// checked before and after the run, so any I/O error, checksum mismatch
/// or corrupt record a DiskNetworkView swallowed mid-run comes back as
/// that non-OK Status instead of a wrong clustering.
Result<ClusterOutput> RunClustering(const NetworkView& view,
                                    const ClusterSpec& spec);

}  // namespace netclus

#endif  // NETCLUS_NETCLUS_H_
