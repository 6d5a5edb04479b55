// Shared helpers for the bench harnesses: the experiment scale, the
// BENCH_<name>.json recorder and small table-printing helpers.
//
// NETCLUS_BENCH_SCALE (default 0.1) scales the network sizes and point
// counts of the paper's experiments (bench/paper.cpp) so the whole
// suite runs in seconds. All reported effects are ratios or asymptotic
// shapes, which are preserved at any scale; set NETCLUS_BENCH_SCALE=1 to
// run the published sizes.
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

/// Scale factor from NETCLUS_BENCH_SCALE (clamped to (0, 1]).
double BenchScale();

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
