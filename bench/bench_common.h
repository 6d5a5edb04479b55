// Shared setup for the experiment harnesses: dataset construction at a
// configurable scale and small table-printing helpers.
//
// Every harness honors NETCLUS_BENCH_SCALE (default 0.1): it scales the
// network sizes and point counts of the paper's experiments so the whole
// suite runs in minutes on one core. All reported effects are ratios or
// asymptotic shapes, which are preserved at any scale; set
// NETCLUS_BENCH_SCALE=1 to run the published sizes.
#ifndef NETCLUS_BENCH_BENCH_COMMON_H_
#define NETCLUS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/network.h"
#include "netclus.h"

namespace netclus {
namespace bench {

// --- unified-entry adapters --------------------------------------------
// Harnesses time RunClustering(view, MakeSpec(options)) — the path users
// actually run, including the one-time Freeze() of an in-memory view —
// and unpack the ClusterOutput back into the per-algorithm result shapes
// the tables read.

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

/// Scale factor from NETCLUS_BENCH_SCALE (clamped to (0, 1]).
double BenchScale();

/// Worker-thread count from NETCLUS_BENCH_THREADS (default 1 so timing
/// columns stay comparable to the paper's single-core setup; clamped to
/// [1, 64]). Harnesses pass it to the algorithms' num_threads knobs and
/// to their own sweep-setup ParallelFor loops.
uint32_t BenchThreads();

/// One of the paper's four datasets, scaled.
struct Dataset {
  std::string name;
  GeneratedNetwork gen;
  GeneratedWorkload workload;
  ClusterWorkloadSpec spec;
};

/// Builds dataset `name` in {"NA","SF","TG","OL"} with N ~= points_per_node
/// * |V| points in k clusters (paper: N ~= 3 |V|, k = 10, 1% outliers).
Dataset MakeDataset(const std::string& name, double scale,
                    double points_per_node = 3.0, uint32_t k = 10,
                    uint64_t seed = 7);

/// An s_init under which the k clusters occupy ~6% of the total edge
/// length, keeping them compact and well separated (the generator's mean
/// point spacing over a cluster's growth is 3 * s_init for F = 5).
double DefaultSInit(const Network& net, PointId clustered_points);

/// \brief Machine-readable counterpart of the printed tables.
///
/// Harnesses Add() one entry per benchmark — the raw wall-clock samples
/// plus the TraversalCounters delta covering them — and Write() emits
/// `BENCH_<name>.json`: an array of objects with median/p95 wall seconds
/// and the settled-node / heap-pop / heap-push / pruned-node totals, so
/// CI and scripts can diff substrate work across revisions without
/// scraping stdout.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name) : name_(std::move(name)) {}

  /// Records benchmark `bench`: its wall-clock samples (seconds; median
  /// and p95 are derived here) and the traversal-counter delta summed
  /// over all samples. Extra scalar facts (hit rates, sizes) go in
  /// `extra` as (key, value) pairs.
  void Add(const std::string& bench, std::vector<double> wall_seconds,
           const TraversalCounters& traversal,
           const std::vector<std::pair<std::string, double>>& extra = {});

  /// Writes BENCH_<name>.json into $NETCLUS_BENCH_JSON_DIR (default the
  /// working directory) and returns the path, or "" on I/O failure.
  /// The file is a snapshot: each run replaces the previous one.
  std::string Write() const;

  /// As Write(), but the file accumulates a perf trajectory instead of
  /// being replaced: each run appends one object
  /// `{"sha": "<git short sha>", "date": "YYYY-MM-DD", "entries": [...]}`
  /// to a top-level array, so per-PR rows line up for diffing. A file in
  /// the old flat-entry format (no "sha" key) is replaced by a fresh
  /// one-run history.
  std::string WriteAppend() const;

 private:
  struct Entry {
    std::string bench;
    double median_seconds = 0.0;
    double p95_seconds = 0.0;
    TraversalCounters traversal;
    std::vector<std::pair<std::string, double>> extra;
  };

  std::string JsonPath() const;
  /// Emits the entry array's objects, one per line, prefixed by `indent`.
  void EmitEntries(std::FILE* f, const char* indent) const;

  std::string name_;
  std::vector<Entry> entries_;
};

/// Prints a row of fixed-width columns to stdout.
void PrintRow(const std::vector<std::string>& cells, int width = 14);

/// The sample at rank floor(p * (n - 1)) of `v` sorted ascending (p in
/// [0, 1]); 0 when `v` is empty.
double Percentile(std::vector<double> v, double p);

/// Formats a double with `digits` decimals.
std::string Fmt(double x, int digits = 3);

/// An eps adapted to the network's scale: a quarter of the median
/// network distance over 64 sampled point pairs of `view` (a fixed
/// sample), so a range query covers a real neighborhood on any generator
/// parameterization.
double SampledEps(const NetworkView& view);

}  // namespace bench
}  // namespace netclus

#endif  // NETCLUS_BENCH_BENCH_COMMON_H_
