// The paper's experiments (Section 5: Tables 1-2, Figs. 11-15) and the
// Section 4.1 / 4.4.2 ablations, driven from one table:
//
//   NETCLUS_BENCH_SCALE=0.1 build/bench/paper
//
// Each experiment names its datasets, methods, recorded columns and the
// shapes the paper claims, with citations. Every run goes through
// RunClustering, and the calling thread's TraversalCounters are diffed
// around it (plus the store's page reads on a disk dataset); a parallel
// run credits its pool workers' traversals to that thread.
// Each experiment prints a markdown table (the scale applies to NA/SF
// rows; OL and TG rows run at full size) and lands in BENCH_paper.json.
// Shapes are checked on counts and partitions, never on wall seconds:
// "ok" holds, "FAIL" breaks a gate (exit 1), "DIVERGENCE" is a claim this
// reproduction does not reproduce (recorded in EXPERIMENTS.md, ungated).
// Thresholds are read from the paper's text, never from a measured run.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/interesting_levels.h"
#include "eval/evaluation.h"
#include "eval/metrics.h"
#include "graph/network_store.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

// ---- Datasets ------------------------------------------------------------

/// The paged store a run traverses; 0 pool bytes = the in-memory view.
struct Disk {
  uint64_t pool_bytes = 0;
  uint32_t page_size = 4096;
  NodePlacement placement = NodePlacement::kConnectivity;
};

/// One dataset row: one of the paper's four networks carrying the
/// paper's workload (10 planted clusters, 1% outliers).
struct DataSpec {
  std::string label;
  const char* network = "NA";    ///< "NA", "SF", "TG" or "OL"
  bool full_size = false;        ///< ignore NETCLUS_BENCH_SCALE
  double points_per_node = 3.0;  ///< N over |V| of the whole network
  uint32_t k = 10;               ///< the k-medoids k
  uint64_t seed = 7;             ///< workload seed
  double subnet = 0.0;  ///< BFS subnetwork share of |V| (0 = whole net)
  Disk disk{};
};

struct Dataset {
  GeneratedNetwork gen;  ///< no coords for a subnetwork
  GeneratedWorkload workload;
  /// The canonical ε: the largest generator gap inside a cluster.
  double eps() const { return workload.max_intra_gap; }
};

/// Builds (once per distinct spec) the dataset `s` names.
const Dataset& Build(const DataSpec& s, double scale) {
  static std::map<std::string, std::unique_ptr<Dataset>> cache;
  const double net_scale = s.full_size ? 1.0 : scale;
  char key[128];
  std::snprintf(key, sizeof(key), "%s %g %g %llu %g", s.network, net_scale,
                s.points_per_node, static_cast<unsigned long long>(s.seed),
                s.subnet);
  std::unique_ptr<Dataset>& d = cache[key];
  if (d != nullptr) return *d;
  d = std::make_unique<Dataset>();
  const std::string net = s.network;
  d->gen = GenerateRoadNetwork(net == "NA"   ? SpecNA(net_scale)
                               : net == "SF" ? SpecSF(net_scale)
                               : net == "TG" ? SpecTG(net_scale)
                                             : SpecOL(net_scale));
  ClusterWorkloadSpec w;
  w.total_points =
      static_cast<PointId>(s.points_per_node * d->gen.net.num_nodes());
  if (s.subnet > 0.0) {
    std::vector<NodeId> old_to_new;
    d->gen.net = BfsSubnetwork(
        d->gen.net, 0,
        static_cast<NodeId>(s.subnet * d->gen.net.num_nodes()), &old_to_new);
    d->gen.coords.clear();
  }
  // Clusters occupy ~6% of the total edge length: the mean point spacing
  // over a cluster's growth is 3 * s_init (F = 5), so they stay compact
  // and 10 random cluster seeds rarely overlap.
  double length = 0.0;
  for (const Edge& e : d->gen.net.Edges()) length += e.weight;
  w.s_init = 0.06 * length /
             (3.0 * static_cast<PointId>(0.99 * w.total_points));
  w.seed = s.seed;
  d->workload = Must(GenerateClusteredPoints(d->gen.net, w), "workload");
  return *d;
}

// ---- Methods and runs ----------------------------------------------------

struct Case {
  const DataSpec& spec;
  const Dataset& data;
};

struct Method {
  std::string label;
  std::function<ClusterSpec(const Case&)> spec;
};

// The paper's settings (§5): k-medoids from random medoids; DBSCAN
// (MinPts = 2) and ε-Link (MinSup = 2) at the generator's ε; Single-Link
// with δ = 0.7ε, cut at ε into clusters of at least 2 points.
ClusterSpec KMedoids(const Case& c) {
  KMedoidsOptions o;
  o.k = c.spec.k;
  o.seed = 42;
  return MakeSpec(o);
}
ClusterSpec Dbscan(const Case& c) {
  DbscanOptions o;
  o.eps = c.data.eps();
  o.min_pts = 2;
  return MakeSpec(o);
}
ClusterSpec EpsLink(const Case& c) {
  EpsLinkOptions o;
  o.eps = c.data.eps();
  o.min_sup = 2;
  return MakeSpec(o);
}
ClusterSpec SingleLink(const Case& c) {
  SingleLinkOptions o;
  o.delta = 0.7 * c.data.eps();
  return MakeSpec(o, c.data.eps(), 2);
}

/// `base` with `tweak` applied to its spec.
Method Tweak(std::string label, ClusterSpec (*base)(const Case&),
             std::function<void(const Case&, ClusterSpec*)> tweak) {
  return {std::move(label), [base, tweak](const Case& c) {
            ClusterSpec s = base(c);
            tweak(c, &s);
            return s;
          }};
}

const std::vector<Method> kFourMethods = {{"k-medoids", KMedoids},
                                          {"DBSCAN", Dbscan},
                                          {"eps-link", EpsLink},
                                          {"single-link", SingleLink}};

struct Run {
  const DataSpec* spec = nullptr;
  const Dataset* data = nullptr;
  ClusterOutput out;
  TraversalCounters work;  ///< the calling thread's, over the run
  DiskNetworkBundle::IoBreakdown io{};  ///< disk datasets only
  uint64_t logical = 0;                 ///< buffer accesses, disk only
  double seconds = 0.0;

  uint64_t physical() const {
    return io.adj_flat.page_reads + io.adj_index.page_reads +
           io.pts_flat.page_reads + io.pts_index.page_reads;
  }
};

Run Measure(const Case& c, const ClusterSpec& spec) {
  Run r;
  r.spec = &c.spec;
  r.data = &c.data;
  const PointSet& points = c.data.workload.points;
  InMemoryNetworkView memory(c.data.gen.net, points);
  std::unique_ptr<DiskNetworkBundle> bundle;
  const NetworkView* view = &memory;
  const Disk& disk = c.spec.disk;
  if (disk.pool_bytes > 0) {
    bundle = Must(DiskNetworkBundle::Create(c.data.gen.net, points,
                                            disk.pool_bytes, disk.page_size,
                                            disk.placement, 3),
                  "disk store");
    bundle->ResetIoStats();  // count the run, not the build
    view = &bundle->view();
  }
  const TraversalCounters before = LocalTraversalCounters();
  WallTimer timer;
  r.out = Must(RunClustering(*view, spec), "RunClustering");
  r.seconds = timer.ElapsedSeconds();
  r.work = LocalTraversalCounters() - before;
  if (bundle != nullptr) {
    r.io = bundle->GetIoBreakdown();
    r.logical = bundle->buffer_manager().stats().logical_accesses();
  }
  return r;
}

// ---- Facts and claims ----------------------------------------------------

double Ari(const Clustering& c, const PointSet& points) {
  return AdjustedRandIndex(points.labels(), c.assignment,
                           NoiseHandling::kIgnore);
}

double Ratio(double a, double b) { return a / std::max(b, 1.0); }

/// The fact `name` of run `r`: its counters, its dataset's size and the
/// columns an experiment records.
double Fact(const Run& r, const std::string& name) {
  const KMedoidsStats& km = r.out.kmedoids_stats;
  const SingleLinkStats& sl = r.out.single_link_stats;
  if (name == "settled") return r.work.settled_nodes;
  if (name == "heap_pops") return r.work.heap_pops;
  if (name == "nodes") return r.data->gen.net.num_nodes();
  if (name == "points") return r.data->workload.points.size();
  if (name == "swaps") return km.committed_swaps;
  if (name == "attempted") return km.attempted_swaps;
  // k-medoids' iterations: the first assignment and each evaluated swap.
  if (name == "per_iteration") {
    return r.work.settled_nodes / (km.attempted_swaps + 1.0);
  }
  if (name == "cost") return r.out.cost;
  if (name == "ARI") return Ari(r.out.clustering, r.data->workload.points);
  if (name == "NMI") {
    return NormalizedMutualInformation(r.data->workload.points.labels(),
                                       r.out.clustering.assignment,
                                       NoiseHandling::kIgnore);
  }
  if (name == "clusters") return Summarize(r.out.clustering).num_clusters;
  if (name == "noise") return Summarize(r.out.clustering).noise_points;
  if (name == "init_clusters") return sl.initial_clusters;
  if (name == "max_P") return sl.max_pair_heap;
  if (name == "max_Q") return sl.max_node_heap;
  if (name == "logical") return r.logical;
  if (name == "phys_reads") return r.physical();
  if (name == "hit_rate") return 1.0 - Ratio(r.physical(), r.logical);
  if (name == "adj") return r.io.adj_flat.page_reads;
  if (name == "adj_idx") return r.io.adj_index.page_reads;
  if (name == "pts") return r.io.pts_flat.page_reads;
  if (name == "pts_idx") return r.io.pts_index.page_reads;
  std::fprintf(stderr, "unknown fact %s\n", name.c_str());
  std::exit(2);
}

/// Fact `name` as printed: scores and rates with three decimals, counts
/// whole.
std::string Show(const std::string& name, double v) {
  const bool score = name == "ARI" || name == "NMI" || name == "cost" ||
                     name == "hit_rate";
  return Fmt(v, score ? 3 : 0);
}

constexpr bool kGated = true;
constexpr bool kUngated = false;

/// Counts the claims the experiments check.
struct Gates {
  /// Prints one of the paper's claims: "ok" when it holds, else "FAIL"
  /// (the driver then exits 1) when `gated`, "DIVERGENCE" when not.
  __attribute__((format(printf, 4, 5))) void Claim(bool gated, bool ok,
                                                   const char* fmt, ...) {
    std::printf("%s: ", ok ? "ok" : gated ? "FAIL" : "DIVERGENCE");
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
    ++(ok ? held : gated ? failed : diverged);
  }
  int held = 0, failed = 0, diverged = 0;
};

/// Runs per dataset row, in the experiment's method order.
using Grid = std::vector<std::vector<Run>>;

/// Method `m`'s fact `name` over the dataset rows of `g`.
std::vector<double> Series(const Grid& g, size_t m, const char* name) {
  std::vector<double> v;
  for (const std::vector<Run>& row : g) v.push_back(Fact(row[m], name));
  return v;
}

std::string Join(const std::vector<double>& v, int digits = 0) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : " -> ") + Fmt(x, digits);
  return s;
}

/// Whether `v` grows strictly from each entry to the next.
bool Grows(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}

/// Whether `v` falls or holds from each entry to the next.
bool NeverGrows(const std::vector<double>& v) {
  return std::is_sorted(v.rbegin(), v.rend());
}

/// Settles per evaluated swap of a k-medoids run, net of the first
/// assignment `first` (the same run stopped before its first swap).
double PerSwap(const Run& run, const Run& first) {
  return (Fact(run, "settled") - Fact(first, "settled")) /
         std::max(1.0, Fact(run, "attempted"));
}

/// Whether two k-medoids runs made the same search: the same swap
/// counts, bit-identical cost and the same medoids.
bool SameSearch(const Run& a, const Run& b) {
  return a.out.medoids == b.out.medoids && a.out.cost == b.out.cost &&
         Fact(a, "attempted") == Fact(b, "attempted") &&
         Fact(a, "swaps") == Fact(b, "swaps");
}

/// Merge distances of `run`'s dendrogram, ascending.
std::vector<double> Heights(const Run& run) {
  std::vector<double> h;
  for (const Merge& m : run.out.dendrogram->merges()) h.push_back(m.distance);
  std::sort(h.begin(), h.end());
  return h;
}

// ---- The experiment table ------------------------------------------------

struct Experiment {
  const char* name;   ///< JSON bench prefix
  const char* title;  ///< the paper's artifact, setting and section
  std::vector<DataSpec> data;
  std::vector<Method> methods;
  std::vector<std::string> columns;  ///< Fact() names
  /// The paper's claims over the runs, with their citations.
  std::function<void(const Grid&, Gates&)> shape;
};

const std::vector<DataSpec> kFourNetworks = {{.label = "NA", .network = "NA"},
                                             {.label = "SF", .network = "SF"},
                                             {.label = "TG", .network = "TG"},
                                             {.label = "OL", .network = "OL"}};

// §5.1: 20,000 points on OL (6,105 nodes), always at full size.
const DataSpec kOl{.label = "OL",
                   .network = "OL",
                   .full_size = true,
                   .points_per_node = 20000.0 / 6105.0,
                   .seed = 10};

// SF-relative point counts of Figs. 12-14 (SF has 174,956 nodes).
double PerSfNode(double points) { return points / 174956.0; }

DataSpec TgOnDisk(uint64_t kib, NodePlacement placement,
                  uint32_t page = 4096) {
  const bool connectivity = placement == NodePlacement::kConnectivity;
  return {.label = std::to_string(kib) + "KiB buffer, " +
                   std::to_string(page / 1024) + "KiB pages, " +
                   (connectivity ? "connectivity" : "random"),
          .network = "TG",
          .full_size = true,
          .disk = {kib * 1024, page, placement}};
}

Method KMedoidsUntil(std::string label, uint32_t unsuccessful,
                     bool incremental = true) {
  return Tweak(std::move(label), KMedoids,
               [=](const Case&, ClusterSpec* s) {
                 s->kmedoids.max_unsuccessful_swaps = unsuccessful;
                 s->kmedoids.incremental_updates = incremental;
               });
}

const Method kFirstAssignment =
    Tweak("first assignment", KMedoids,
          [](const Case&, ClusterSpec* s) { s->kmedoids.max_swaps = 0; });

std::string Map(const Dataset& d, const Clustering& c) {
  return AsciiClusterMap(d.gen.net, d.workload.points, d.gen.coords, c, 16,
                         56);
}

void Fig11Shape(const Grid& g, Gates& gates) {
  const std::vector<Run>& r = g[0];  // kmed-rand ... SL@eps
  const std::vector<int>& db = r[2].out.clustering.assignment;
  const std::vector<int>& el = r[3].out.clustering.assignment;
  gates.Claim(kGated, SamePartition(db, el),
              "§5.1: eps-link's partition is bit-identical to DBSCAN's");
  gates.Claim(kGated, SamePartition(r[5].out.clustering.assignment, el),
              "§5.1: Single-Link cut at eps is bit-identical to eps-link");
  const Dataset& d = *r[0].data;
  Clustering six = r[5].out.dendrogram->CutAtLargeClusterCount(6, 100);
  std::printf("\nSingle-Link at 6 large clusters (Fig. 11f): ARI %.3f, %d "
              "clusters; %zu initial clusters after the delta phase\n",
              Ari(six, d.workload.points), six.num_clusters,
              r[5].out.single_link_stats.initial_clusters);
  Clustering truth;
  truth.assignment = d.workload.points.labels();
  truth.num_clusters = 10;
  std::printf("\n--- ground truth map ---\n%s\n--- eps-link map ---\n%s\n"
              "--- k-medoids (random seeds) map ---\n%s\n",
              Map(d, truth).c_str(), Map(d, r[3].out.clustering).c_str(),
              Map(d, r[0].out.clustering).c_str());
}

void Table1Shape(const Grid& g, Gates& gates) {
  for (const std::vector<Run>& r : g) {  // first assignment, k-medoids
    const double first = Fact(r[0], "settled");
    const double swap = PerSwap(r[1], r[0]);
    gates.Claim(kGated, first > swap,
                "Table 1, %s: the first assignment settles %.0f nodes, "
                "%.2fx an evaluated swap's %.0f (paper: a swap is ~4x "
                "cheaper; gate: > 1x)",
                r[0].spec->label.c_str(), first, first / swap, swap);
  }
}

void RestartShape(const Grid& g, Gates& gates) {
  gates.Claim(kGated, SameSearch(g[0][0], g[0][1]),
              "8 restarts give bit-identical cost and medoids at 1 and 4 "
              "threads");
  const double one = Fact(g[0][0], "settled");
  const double four = Fact(g[0][1], "settled");
  gates.Claim(kGated, one == four,
              "8 restarts settle the same number of nodes at 1 and 4 "
              "threads (%.0f vs %.0f)",
              one, four);
}

void Table2Shape(const Grid& g, Gates& gates) {
  for (const std::vector<Run>& r : g) {  // k-medoids, DBSCAN, eps, single
    const char* name = r[0].spec->label.c_str();
    const auto s = [&](size_t m) { return Fact(r[m], "settled"); };
    gates.Claim(kGated, s(0) > std::max({s(1), s(2), s(3)}),
                "Table 2, %s: k-medoids settles the most nodes (%.0f)", name,
                s(0));
    gates.Claim(kGated, s(2) < std::min({s(0), s(1), s(3)}),
                "Table 2, %s: eps-link settles the fewest nodes (%.0f)", name,
                s(2));
    gates.Claim(kUngated, s(1) > s(3),
                "Table 2, %s: DBSCAN settles more nodes than Single-Link "
                "(%.0f vs %.0f; paper: DBSCAN > Single-Link in seconds; "
                "not gated)",
                name, s(1), s(3));
  }
}

void Fig12Shape(const Grid& g, Gates& gates) {
  std::vector<double> ratios;
  for (const std::vector<Run>& r : g) {  // first, incremental, scratch
    gates.Claim(kGated, SameSearch(r[1], r[2]),
                "Fig. 12, %s: incremental and scratch walk the same swaps",
                r[0].spec->label.c_str());
    ratios.push_back(PerSwap(r[2], r[0]) / PerSwap(r[1], r[0]));
  }
  gates.Claim(kGated, Grows(ratios),
              "Fig. 12: settles per evaluated swap, scratch over "
              "incremental, grow with k: %s (paper: ~2x at k=2 to 6-8x at "
              "k=50)",
              Join(ratios, 2).c_str());
}

/// The paper's "cost grows proportionally to" a size (§5.2), read as:
/// method `m`'s `counter` grows at every step of the sweep, and its
/// growth over the sweep is within 2x of the growth of `size`.
struct Scaling {
  size_t m;
  const char* counter;
  bool gated;
  const char* claim;
};

std::function<void(const Grid&, Gates&)> Scales(const char* size,
                                                std::vector<Scaling> claims) {
  return [=](const Grid& g, Gates& gates) {
    for (const Scaling& c : claims) {
      const std::vector<double> v = Series(g, c.m, c.counter);
      const std::vector<double> n = Series(g, c.m, size);
      const double growth = v.back() / v.front();
      const double ratio = growth / (n.back() / n.front());
      gates.Claim(c.gated, Grows(v) && ratio >= 0.5 && ratio <= 2.0,
                  "%s: %s (x%.1f for x%.1f; proportional within 2x)",
                  c.claim, Join(v).c_str(), growth, n.back() / n.front());
    }
  };
}

void Fig15Shape(const Grid& g, Gates& gates) {
  const Run& r = g[0][0];
  const double eps = r.data->eps();
  const std::vector<double> h = Heights(r);
  std::printf("\neps = %.4f; last 49 merge distances, '*' marks d > eps:\n",
              eps);
  for (size_t i = h.size() - std::min<size_t>(49, h.size()); i < h.size();
       ++i) {
    const int bar = static_cast<int>(60.0 * h[i] / h.back());
    std::printf("%4zu %9.4f %c |%s\n", h.size() - i, h[i],
                h[i] > eps ? '*' : ' ', std::string(bar, '#').c_str());
  }
  const std::vector<InterestingLevel> levels =
      DetectInterestingLevels(*r.out.dendrogram, InterestingLevelOptions{});
  std::printf("\ninteresting levels (window 10, factor 5):\n");
  for (const InterestingLevel& l : levels) {
    std::printf("  jump %8.4f -> %8.4f (x%.1f avg)\n", l.distance_before,
                l.distance_after, l.jump_ratio);
  }
  if (levels.empty()) {
    gates.Claim(kGated, false, "Fig. 15: the detector flags a level");
    return;
  }
  const InterestingLevel& top = *std::max_element(
      levels.begin(), levels.end(), [](const auto& a, const auto& b) {
        return a.jump_ratio < b.jump_ratio;
      });
  gates.Claim(kGated, top.distance_before <= eps && eps < top.distance_after,
              "Fig. 15: the sharpest jump (%.4f -> %.4f) brackets eps %.4f",
              top.distance_before, top.distance_after, eps);
  const Clustering cut =
      r.out.dendrogram->CutAtDistance(top.distance_before, 100);
  const double ari = Ari(cut, r.data->workload.points);
  gates.Claim(kGated, ari == 1.0,
              "Fig. 15: the cut just below it gives ARI %.3f (%d clusters)",
              ari, cut.num_clusters);
}

// δ as fractions of ε; the exact run (δ = 0) first.
constexpr double kDeltas[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9};

void DeltaShape(const Grid& g, Gates& gates) {
  const std::vector<Run>& r = g[0];
  const std::vector<double> exact = Heights(r[0]);
  for (size_t j = 1; j < r.size(); ++j) {
    // Every merge above δ at the exact run's height, and the same cut.
    const double delta = kDeltas[j] * r[j].data->eps();
    const std::vector<double> h = Heights(r[j]);
    bool same = h.size() == exact.size();
    for (size_t i = 0; same && i < h.size(); ++i) {
      same = exact[i] <= delta || std::abs(h[i] - exact[i]) <= 1e-9;
    }
    gates.Claim(kGated,
                same && SamePartition(r[j].out.clustering.assignment,
                                      r[0].out.clustering.assignment),
                "§4.4.2, delta = %.1f eps: every merge above delta and the "
                "cut at eps match the exact run",
                kDeltas[j]);
  }
  // "About an order of magnitude" (§4.4.2, delta = 0.7 eps): read as a
  // shrink whose nearest power of ten is 10, i.e. at least sqrt(10).
  for (const char* heap : {"init_clusters", "max_P", "max_Q"}) {
    const double shrink = Ratio(Fact(r[0], heap), Fact(r[4], heap));
    const bool paper_gates = std::string(heap) != "max_Q";
    gates.Claim(paper_gates, shrink >= std::sqrt(10.0),
                "§4.4.2: delta = 0.7 eps shrinks %s %.1fx (about an order of "
                "magnitude: >= 3.16x)%s",
                heap, shrink,
                paper_gates ? "" : "; paper: both heaps shrink; not gated");
  }
}

// Buffer sizes of the storage sweep; each runs both placements.
constexpr uint64_t kBufferKib[] = {64, 128, 256, 512, 1024};

void StorageShape(const Grid& g, Gates& gates) {
  // Rows: (connectivity, random) per buffer size, then the page sweep.
  const std::vector<double> reads = Series(g, 0, "phys_reads");
  std::vector<double> by_buffer[2];
  for (size_t b = 0; b < std::size(kBufferKib); ++b) {
    gates.Claim(kGated, reads[2 * b] < reads[2 * b + 1],
                "§4.1: connectivity placement reads fewer pages than random "
                "at %lluKiB (%.0f vs %.0f)",
                static_cast<unsigned long long>(kBufferKib[b]),
                reads[2 * b], reads[2 * b + 1]);
    by_buffer[0].push_back(reads[2 * b]);
    by_buffer[1].push_back(reads[2 * b + 1]);
  }
  for (int p = 0; p < 2; ++p) {
    gates.Claim(kGated, NeverGrows(by_buffer[p]),
                "§4.1: %s placement reads fall or hold as the buffer grows: "
                "%s",
                p == 0 ? "connectivity" : "random",
                Join(by_buffer[p]).c_str());
  }
  const std::vector<double> by_page(reads.begin() + 2 * std::size(kBufferKib),
                                    reads.end());
  gates.Claim(kGated, NeverGrows(by_page),
              "§4.1: reads fall or hold as pages grow (256KiB buffer): %s",
              Join(by_page).c_str());
}

void MethodIoShape(const Grid& g, Gates& gates) {
  const std::vector<Run>& r = g[0];  // k-medoids, DBSCAN, eps, single
  const auto adj = [&](size_t m) {
    return Fact(r[m], "adj") + Fact(r[m], "adj_idx");
  };
  const auto pts = [&](size_t m) {
    return Fact(r[m], "pts") + Fact(r[m], "pts_idx");
  };
  const double adj_db = Ratio(adj(0), adj(1));
  const double adj_el = Ratio(adj(0), adj(2));
  gates.Claim(kGated, adj_db >= 10.0 && adj_el >= 10.0,
              "§5.2: k-medoids adjacency reads are >= 10x DBSCAN's (%.1fx) "
              "and eps-link's (%.1fx)",
              adj_db, adj_el);
  const double logical = Ratio(r[1].logical, r[2].logical);
  gates.Claim(kGated, logical >= 10.0,
              "§5.2: DBSCAN's logical accesses are >= 10x eps-link's (%.1fx)",
              logical);
  gates.Claim(kGated, pts(3) < std::min({pts(0), pts(1), pts(2)}),
              "§5.2: Single-Link reads the fewest points-file pages (%.0f; "
              "k-medoids %.0f, DBSCAN %.0f, eps-link %.0f)",
              pts(3), pts(0), pts(1), pts(2));
}

std::vector<Experiment> Experiments() {
  std::vector<Experiment> e;
  e.push_back({"fig11", "Figure 11: effectiveness on OL (§5.1)", {kOl},
               {{"kmed-rand", KMedoids},
                Tweak("kmed-ideal", KMedoids,
                      [](const Case& c, ClusterSpec* s) {
                        s->kmedoids.initial_medoids =
                            c.data.workload.cluster_seeds;
                      }),
                {"DBSCAN", Dbscan},
                {"eps-link", EpsLink},
                Tweak("SL@delta", SingleLink,
                      [](const Case&, ClusterSpec* s) {
                        s->cut_distance = s->single_link.delta;
                      }),
                {"SL@eps", SingleLink}},
               {"ARI", "NMI", "clusters", "noise"},
               Fig11Shape});
  e.push_back({"table1", "Table 1: k-medoids cost, k = 10 (§5.2)",
               kFourNetworks,
               {kFirstAssignment, {"k-medoids", KMedoids}},
               {"swaps", "attempted"},
               Table1Shape});
  const auto restarts = [](uint32_t threads) {
    return Tweak(std::to_string(threads) + " thread(s)", KMedoids,
                 [threads](const Case&, ClusterSpec* s) {
                   s->kmedoids.num_restarts = 8;
                   s->kmedoids.num_threads = threads;
                 });
  };
  e.push_back({"restarts",
               "Table 1, execution engine: 8 restarts on NA at 1 and 4 "
               "threads",
               {{.label = "NA", .network = "NA"}},
               {restarts(1), restarts(4)},
               {"cost"},
               RestartShape});
  e.push_back({"table2", "Table 2: cost of the four methods (§5.2)",
               kFourNetworks, kFourMethods, {}, Table2Shape});
  std::vector<DataSpec> by_k;
  for (uint32_t k : {2u, 5u, 10u, 25u, 50u}) {
    by_k.push_back({.label = "k=" + std::to_string(k),
                    .network = "SF",
                    .points_per_node = PerSfNode(500000),
                    .k = k});
  }
  e.push_back({"fig12",
               "Figure 12: incremental vs scratch replacement on SF (§5.2)",
               by_k,
               {kFirstAssignment, KMedoidsUntil("incremental", 8),
                KMedoidsUntil("scratch", 8, false)},
               {"swaps", "attempted"},
               Fig12Shape});
  std::vector<DataSpec> by_n;
  for (int n : {100, 200, 500, 1000}) {
    by_n.push_back({.label = std::to_string(n) + "K points scaled",
                    .network = "SF",
                    .points_per_node = PerSfNode(n * 1000.0)});
  }
  e.push_back({"fig13", "Figure 13: scalability with N on SF (§5.2)", by_n,
               kFourMethods, {},
               Scales("points", {{1, "settled", kUngated,
                                  "Fig. 13: DBSCAN settles grow with N"}})});
  for (DataSpec& s : by_n) s.disk.pool_bytes = 1 << 20;
  e.push_back({"fig13-disk",
               "Figure 13 on disk (1MiB buffer, 4KiB pages) (§5.2)",
               by_n,
               {{"DBSCAN", Dbscan}, {"eps-link", EpsLink}},
               {"logical", "phys_reads"},
               Scales("points",
                      {{0, "logical", kGated,
                        "Fig. 13: DBSCAN's logical page accesses grow with N"},
                       {1, "logical", kUngated,
                        "Fig. 13: eps-link's logical page accesses grow with "
                        "N"}})});
  std::vector<DataSpec> by_v;
  for (int pct : {10, 20, 50, 100}) {
    by_v.push_back({.label = std::to_string(pct) + "% of SF",
                    .network = "SF",
                    .points_per_node = PerSfNode(200000),
                    .subnet = pct / 100.0});
  }
  e.push_back({"fig14",
               "Figure 14: scalability with |V| on SF subnetworks (§5.2)",
               by_v, kFourMethods, {"attempted", "per_iteration"},
               // k-medoids' total also scales with its seed-dependent
               // swap count; its cost per iteration carries the shape.
               Scales("nodes",
                      {{0, "per_iteration", kGated,
                        "Fig. 14: k-medoids settles per iteration grow with "
                        "|V|"},
                       {0, "settled", kUngated,
                        "Fig. 14: k-medoids settles grow with |V|"},
                       {3, "settled", kGated,
                        "Fig. 14: Single-Link settles grow with |V|"}})});
  e.push_back({"fig15",
               "Figure 15: Single-Link merge distances on OL (§5.3)",
               {kOl},
               {{"single-link", SingleLink}},
               {"clusters"},
               Fig15Shape});
  std::vector<Method> deltas;
  for (double frac : kDeltas) {
    deltas.push_back(Tweak("delta=" + Fmt(frac, 1) + "eps", SingleLink,
                           [frac](const Case& c, ClusterSpec* s) {
                             s->single_link.delta = frac * c.data.eps();
                           }));
  }
  e.push_back({"delta",
               "Ablation: the Single-Link delta heuristic on OL (§4.4.2)",
               {kOl}, deltas, {"init_clusters", "max_P", "max_Q"}, DeltaShape});
  std::vector<DataSpec> stores;
  for (uint64_t kib : kBufferKib) {
    stores.push_back(TgOnDisk(kib, NodePlacement::kConnectivity));
    stores.push_back(TgOnDisk(kib, NodePlacement::kRandom));
  }
  for (uint32_t page : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    stores.push_back(TgOnDisk(256, NodePlacement::kConnectivity, page));
  }
  e.push_back({"storage",
               "Ablation: storage placement, buffer and page size (§4.1)",
               stores,
               {{"eps-link", EpsLink}},
               {"phys_reads", "logical", "hit_rate"},
               StorageShape});
  e.push_back({"method-io",
               "Ablation: per-method, per-file disk I/O on TG (§5.2)",
               {TgOnDisk(128, NodePlacement::kConnectivity)},
               {KMedoidsUntil("k-medoids", 5), {"DBSCAN", Dbscan},
                {"eps-link", EpsLink}, {"single-link", SingleLink}},
               {"logical", "adj", "adj_idx", "pts", "pts_idx"},
               MethodIoShape});
  return e;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  std::printf("# Paper experiments (NETCLUS_BENCH_SCALE=%.2f)\n", scale);
  BenchRecorder recorder("paper");
  Gates gates;
  for (const Experiment& e : Experiments()) {
    std::vector<std::string> columns = {"nodes", "points"};
    columns.insert(columns.end(), e.columns.begin(), e.columns.end());
    std::printf("\n## %s\n\n| dataset | method |", e.title);
    for (const std::string& c : columns) std::printf(" %s |", c.c_str());
    std::printf(" settled | heap_pops | seconds |\n|---|---|");
    for (size_t i = 0; i < columns.size() + 3; ++i) std::printf("---|");
    std::printf("\n");
    Grid grid;
    for (const DataSpec& spec : e.data) {
      const Case c{spec, Build(spec, scale)};
      grid.emplace_back();
      for (const Method& m : e.methods) {
        Run r = Measure(c, m.spec(c));
        std::printf("| %s | %s |", spec.label.c_str(), m.label.c_str());
        std::vector<std::pair<std::string, double>> extra;
        for (const std::string& col : columns) {
          extra.emplace_back(col, Fact(r, col));
          std::printf(" %s |", Show(col, extra.back().second).c_str());
        }
        std::printf(" %llu | %llu | %.4f |\n",
                    static_cast<unsigned long long>(r.work.settled_nodes),
                    static_cast<unsigned long long>(r.work.heap_pops),
                    r.seconds);
        recorder.Add(std::string(e.name) + "/" + spec.label + "/" + m.label,
                     {r.seconds}, r.work, extra);
        grid.back().push_back(std::move(r));
      }
    }
    std::printf("\n");
    e.shape(grid, gates);
  }
  std::printf("\npaper summary: %d shapes held, %d failed, %d diverged\n",
              gates.held, gates.failed, gates.diverged);
  const std::string path = recorder.Write();
  std::printf("wrote %s\n", path.empty() ? "nothing (I/O error)" : path.c_str());
  return gates.failed == 0 && !path.empty() ? 0 : 1;
}
