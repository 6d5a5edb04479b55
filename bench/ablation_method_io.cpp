// Ablation A5: per-file I/O behaviour of the four methods over the disk
// store — the mechanism behind the paper's Section 5.2 cost discussion:
//
//   * k-medoids traverses the whole network repeatedly but scans the
//     points file sequentially once per iteration;
//   * DBSCAN issues a range query per point: many redundant accesses of
//     both files;
//   * ε-Link touches only the populated part of the network, but its
//     point accesses are random;
//   * Single-Link scans the points file once and then traverses the
//     network via the heaps.
//
// Logical accesses show the access-pattern volume; physical reads show
// how well each pattern survives a small (128 KiB) buffer. The disk view
// is traversed directly, so every count is the algorithm's own. The
// harness prints FAIL and exits 1 unless the deterministic shape holds:
//   - k-medoids' adjacency-side physical reads (flat + index) are >= 10x
//     those of DBSCAN and of ε-Link;
//   - DBSCAN's logical accesses are >= 10x ε-Link's;
//   - Single-Link reads the fewest points-file pages (flat + index).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/dbscan.h"
#include "core/eps_link.h"
#include "core/kmedoids.h"
#include "core/single_link.h"
#include "graph/network_store.h"

using namespace netclus;
using namespace netclus::bench;

int main() {
  double scale = BenchScale();
  std::printf("=== Ablation: per-method disk I/O (scale %.2f) ===\n\n",
              scale);
  Dataset d = MakeDataset("TG", 1.0, 3.0, 10, 7);  // TG full: real pressure
  (void)scale;
  double eps = d.workload.max_intra_gap;
  std::printf("network: %u nodes, %u points; 128 KiB buffer, 4 KiB pages\n\n",
              d.gen.net.num_nodes(), d.workload.points.size());

  PrintRow({"method", "logical", "phys-adj", "phys-adj-idx", "phys-pts",
            "phys-pts-idx"});
  struct MethodIo {
    uint64_t logical = 0;
    uint64_t adj = 0;  // adjacency file + its index
    uint64_t pts = 0;  // points file + its index
  };
  auto run = [&](const char* name, auto&& algorithm) {
    auto bundle = std::move(DiskNetworkBundle::Create(d.gen.net,
                                                      d.workload.points,
                                                      128 * 1024, 4096,
                                                      NodePlacement::kConnectivity,
                                                      3)
                                .value());
    bundle->ResetIoStats();
    algorithm(bundle->view());
    DiskNetworkBundle::IoBreakdown io = bundle->GetIoBreakdown();
    MethodIo m;
    m.logical = bundle->buffer_manager().stats().logical_accesses();
    m.adj = io.adj_flat.page_reads + io.adj_index.page_reads;
    m.pts = io.pts_flat.page_reads + io.pts_index.page_reads;
    PrintRow({name, std::to_string(m.logical),
              std::to_string(io.adj_flat.page_reads),
              std::to_string(io.adj_index.page_reads),
              std::to_string(io.pts_flat.page_reads),
              std::to_string(io.pts_index.page_reads)});
    return m;
  };

  const MethodIo kmedoids = run("k-medoids", [&](const NetworkView& view) {
    KMedoidsOptions opts;
    opts.k = 10;
    opts.seed = 42;
    opts.max_unsuccessful_swaps = 5;
    (void)RunKMedoids(view, opts).value();
  });
  const MethodIo dbscan = run("dbscan", [&](const NetworkView& view) {
    DbscanOptions opts;
    opts.eps = eps;
    opts.min_pts = 2;
    (void)RunDbscan(view, opts).value();
  });
  const MethodIo eps_link = run("eps-link", [&](const NetworkView& view) {
    EpsLinkOptions opts;
    opts.eps = eps;
    (void)RunEpsLink(view, opts).value();
  });
  const MethodIo single_link = run("single-link", [&](const NetworkView& view) {
    SingleLinkOptions opts;
    opts.delta = 0.7 * eps;
    (void)RunSingleLink(view, opts).value();
  });

  auto ratio = [](uint64_t a, uint64_t b) {
    return static_cast<double>(a) / static_cast<double>(std::max<uint64_t>(b, 1));
  };
  const double adj_vs_dbscan = ratio(kmedoids.adj, dbscan.adj);
  const double adj_vs_eps_link = ratio(kmedoids.adj, eps_link.adj);
  const double logical_ratio = ratio(dbscan.logical, eps_link.logical);
  const bool single_link_fewest_pts =
      single_link.pts < std::min({kmedoids.pts, dbscan.pts, eps_link.pts});
  std::printf(
      "\nmethod-io shape: k-medoids adjacency reads %.1fx dbscan, %.1fx "
      "eps-link; dbscan logical accesses %.1fx eps-link; single-link "
      "points-file pages %llu (k-medoids %llu, dbscan %llu, eps-link %llu)\n",
      adj_vs_dbscan, adj_vs_eps_link, logical_ratio,
      static_cast<unsigned long long>(single_link.pts),
      static_cast<unsigned long long>(kmedoids.pts),
      static_cast<unsigned long long>(dbscan.pts),
      static_cast<unsigned long long>(eps_link.pts));
  int failures = 0;
  if (adj_vs_dbscan < 10.0 || adj_vs_eps_link < 10.0) {
    std::printf("FAIL: k-medoids adjacency reads are not >= 10x both "
                "dbscan's and eps-link's\n");
    ++failures;
  }
  if (logical_ratio < 10.0) {
    std::printf("FAIL: dbscan logical accesses are not >= 10x eps-link's\n");
    ++failures;
  }
  if (!single_link_fewest_pts) {
    std::printf("FAIL: single-link does not read the fewest points-file "
                "pages\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
