// Test-side adapters over the unified RunClustering entry point.
//
// Tests route through RunClustering(view, MakeSpec(options)) — the path
// users run — and unpack the ClusterOutput back into the per-algorithm
// result shapes so existing assertions read unchanged.
#ifndef NETCLUS_TESTS_RUN_HELPERS_H_
#define NETCLUS_TESTS_RUN_HELPERS_H_

#include <utility>

#include "netclus.h"

namespace netclus {

inline Result<KMedoidsResult> RunKMedoids(const NetworkView& view,
                                          const KMedoidsOptions& options) {
  NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                           RunClustering(view, MakeSpec(options)));
  KMedoidsResult r;
  r.clustering = std::move(out.clustering);
  r.medoids = std::move(out.medoids);
  r.cost = out.cost;
  r.stats = out.kmedoids_stats;
  return r;
}

inline Result<Clustering> RunEpsLink(const NetworkView& view,
                                     const EpsLinkOptions& options) {
  NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                           RunClustering(view, MakeSpec(options)));
  return std::move(out.clustering);
}

inline Result<Clustering> RunDbscan(const NetworkView& view,
                                    const DbscanOptions& options) {
  NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                           RunClustering(view, MakeSpec(options)));
  return std::move(out.clustering);
}

inline Result<SingleLinkResult> RunSingleLink(
    const NetworkView& view, const SingleLinkOptions& options) {
  NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                           RunClustering(view, MakeSpec(options)));
  if (!out.dendrogram.has_value()) {
    return Status::Internal("single-link run produced no dendrogram");
  }
  SingleLinkResult r(0);
  r.dendrogram = std::move(*out.dendrogram);
  r.stats = out.single_link_stats;
  return r;
}

}  // namespace netclus

#endif  // NETCLUS_TESTS_RUN_HELPERS_H_
