// The four benchmark workloads and what one run of them reports.
//
// Every run reports the same two gated end-to-end metrics, setup_s and
// cpu_per_op_ms (CPU time of the whole process per unit of work: a read
// at saturation, a visible write, a loopback round trip, a clustering
// round), plus named details — the wall-clock latencies and rates of
// each workload, such as read_p99_ms or kmedoids_s — that go into the
// result row but are not gated: on a shared multi-core host the serving
// wall-clock figures swing by more than the largest bound allowed. A
// traced run also reports every per-layer metric; layers a workload does
// not exercise report 0.
#ifndef NETCLUS_PERFBENCH_WORKLOADS_H_
#define NETCLUS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netclus.h"
#include "server/query.h"
#include "server/query_server.h"
#include "util.h"
#include "world.h"

namespace perfbench {

struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// How many times the run repeats its set-up; setup_s is the median.
  uint64_t setup_reps = 1;
  /// Directory (inside the checkout) for temporary files and traces.
  std::string work_dir;
  Params params;
};

struct RunOutput {
  bool correct = true;
  std::vector<std::string> problems;  ///< why `correct` is false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics e2e;     ///< the gated end-to-end metrics
  Metrics layer;   ///< per-layer metrics (traced runs)
  Metrics detail;  ///< named per-workload figures, recorded not gated

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

RunOutput RunServeRead(const RunContext& ctx);
RunOutput RunServeWrite(const RunContext& ctx);
RunOutput RunRemote(const RunContext& ctx);
RunOutput RunClusterBatch(const RunContext& ctx);

/// Server options of the serving workloads: `server.workers`,
/// `server.queue_depth`, `server.max_batch` and the world's ε-Link spec.
netclus::QueryServerOptions ServeOptions(const Params& p,
                                         const ServeWorld& world);

/// QueryServer::Start on a copy of `world`, inside a server.Start span.
std::unique_ptr<netclus::QueryServer> StartServer(
    const ServeWorld& world, const netclus::QueryServerOptions& opts);

/// Per-layer probes shared by the workloads (defined in main.cc).

/// graph.exec_us.*, graph.settled.<kind>, graph.heap_pops.<kind> and
/// graph.freeze_ms over `world`, plus core.recluster_ms and
/// graph.settled.epslink from one ε-Link RunClustering. Returns the
/// per-kind costs for server.execute_share.
std::map<netclus::QueryKind, KindCost> ProbeGraphLayer(
    const ServeWorld& world, const MixSpec& mix, uint64_t seed,
    uint64_t per_kind, Metrics* layer);

/// net.encode_us / net.decode_us: wire codec cost of one round trip
/// (query encode + decode, response encode + decode) over `sample`.
/// Fails `out` when a decoded frame differs from what was encoded.
void ProbeCodec(
    const std::vector<std::pair<netclus::QueryRequest,
                                netclus::QueryResponse>>& sample,
    RunOutput* out);

/// server.start_s (median of `start_s`), the queue-wait quantiles of
/// `waits`, and the batch and deadline figures between stats `s0` and
/// `s1`.
void AddServerLayer(const netclus::ServerStats& s0,
                    const netclus::ServerStats& s1,
                    const std::vector<double>& waits,
                    const std::vector<double>& start_s, Metrics* layer);

/// Mix-weighted inline execute time (µs) of `mix` from `costs`.
double MixExecuteUs(const MixSpec& mix,
                    const std::map<netclus::QueryKind, KindCost>& costs);

/// Appends the read-latency details of one load phase as
/// `<prefix>_p50_ms`, `<prefix>_p99_ms` and the open-loop generator's
/// lateness and backlog.
void AddLoadDetails(const std::string& prefix, const LoadResult& r,
                    Metrics* detail);

/// Fails `out` on any replay mismatch in `sample` and records the
/// replayed count.
void CheckReplay(
    const ServeWorld& world, const std::string& what,
    const std::vector<std::pair<netclus::QueryRequest,
                                netclus::QueryResponse>>& sample,
    RunOutput* out);

/// Sets every per-layer metric name to 0 so a traced run always
/// reports the full list; probes then overwrite what the workload
/// exercises.
void ZeroLayerMetrics(Metrics* layer);

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_WORKLOADS_H_
