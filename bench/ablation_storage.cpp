// Ablation A3: the disk storage architecture (paper Section 4.1 + the
// 1 MiB buffer / 4 KiB page setting of Section 5).
//
// Runs ε-Link over the disk-backed store and reports physical page reads
// for (a) CCAM-style connectivity placement vs. random placement of node
// records, and (b) a sweep of buffer pool sizes. Physical I/O is the
// hardware-independent cost signal of the paper's experiments; the disk
// view is traversed directly, so the reads are ε-Link's own. The harness
// prints FAIL and exits 1 unless connectivity placement reads fewer
// pages than random at every buffer size, reads do not increase with
// buffer size for either placement, and reads do not increase with page
// size in the page sweep.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/eps_link.h"
#include "graph/network_store.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

struct IoResult {
  uint64_t physical_reads = 0;
  uint64_t logical = 0;
  double hit_rate = 0.0;
};

IoResult RunEpsLinkOnDisk(const Dataset& d, NodePlacement placement,
                          uint64_t pool_bytes, uint32_t page_size = 4096) {
  auto bundle = std::move(DiskNetworkBundle::Create(d.gen.net,
                                                    d.workload.points,
                                                    pool_bytes, page_size,
                                                    placement, 3)
                              .value());
  // Count only the clustering run, not the build.
  uint64_t before = bundle->TotalPhysicalReads();
  BufferStats bstats = bundle->buffer_manager().stats();
  uint64_t logical_before = bstats.logical_accesses();
  EpsLinkOptions opts;
  opts.eps = d.workload.max_intra_gap;
  (void)RunEpsLink(bundle->view(), opts).value();
  IoResult r;
  r.physical_reads = bundle->TotalPhysicalReads() - before;
  r.logical = bundle->buffer_manager().stats().logical_accesses() -
              logical_before;
  r.hit_rate = r.logical > 0
                   ? 1.0 - static_cast<double>(r.physical_reads) / r.logical
                   : 1.0;
  return r;
}

}  // namespace

int main() {
  std::printf("=== Ablation: storage placement & buffer size ===\n\n");
  // TG at full size (18K nodes): the flat files span hundreds of pages,
  // so placement and buffer size actually matter.
  Dataset d = MakeDataset("TG", 1.0, 3.0, 10, 7);
  std::printf("network: %u nodes, %zu edges, %u points; eps-link workload\n\n",
              d.gen.net.num_nodes(), d.gen.net.num_edges(),
              d.workload.points.size());

  PrintRow({"buffer", "placement", "phys-reads", "logical", "hit-rate"});
  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  };
  // Reads at the previous (smaller) buffer size, per placement.
  uint64_t prev_reads[2] = {UINT64_MAX, UINT64_MAX};
  for (uint64_t kib : {64u, 128u, 256u, 512u, 1024u}) {
    const std::string buffer = std::to_string(kib) + "KiB";
    uint64_t reads[2];
    int i = 0;
    for (auto [name, placement] :
         {std::pair<const char*, NodePlacement>{"connectivity",
                                                NodePlacement::kConnectivity},
          {"random", NodePlacement::kRandom}}) {
      IoResult r = RunEpsLinkOnDisk(d, placement, kib * 1024);
      PrintRow({buffer, name, std::to_string(r.physical_reads),
                std::to_string(r.logical), Fmt(r.hit_rate, 4)});
      if (r.physical_reads > prev_reads[i]) {
        fail(std::string(name) + " placement reads more pages at " + buffer +
             " than at the next smaller buffer");
      }
      reads[i] = prev_reads[i] = r.physical_reads;
      ++i;
    }
    if (reads[0] >= reads[1]) {
      fail("connectivity placement does not read fewer pages than random "
           "at " + buffer);
    }
  }
  std::printf("\n--- page size sweep (256 KiB buffer, connectivity) ---\n");
  PrintRow({"page", "phys-reads", "phys-KiB", "logical"});
  uint64_t prev_page_reads = UINT64_MAX;
  for (uint32_t page : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    IoResult r = RunEpsLinkOnDisk(d, NodePlacement::kConnectivity, 256 * 1024,
                                  page);
    PrintRow({std::to_string(page / 1024) + "KiB",
              std::to_string(r.physical_reads),
              std::to_string(r.physical_reads * (page / 1024)),
              std::to_string(r.logical)});
    if (r.physical_reads > prev_page_reads) {
      fail("reads grow from the next smaller page size to " +
           std::to_string(page / 1024) + "KiB pages");
    }
    prev_page_reads = r.physical_reads;
  }

  std::printf(
      "\nstorage shape: connectivity placement reads fewer pages than "
      "random at every buffer size; reads fall (or hold) as the buffer "
      "grows and as pages grow — %d violation(s)\n",
      failures);
  return failures == 0 ? 0 : 1;
}
