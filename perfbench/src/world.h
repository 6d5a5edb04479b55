// The serving world shared by serve-read, serve-write and remote: a
// generated road network with uniform points and an ε-Link cluster
// spec; the seeded request streams; the open- and closed-loop load
// generators; inline replay of served answers; and the inline per-kind
// cost probe behind the graph.* layer metrics.
#ifndef NETCLUS_PERFBENCH_WORLD_H_
#define NETCLUS_PERFBENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/network_gen.h"
#include "graph/frozen_graph.h"
#include "graph/network.h"
#include "netclus.h"
#include "server/query.h"
#include "server/query_server.h"
#include "util.h"

namespace perfbench {

/// Generated network + uniform points + the ε-Link spec the server
/// clusters every epoch with. Point i carries ObjectId i in the boot
/// epoch of a server started on this world.
struct ServeWorld {
  netclus::GeneratedNetwork gen;
  netclus::PointSet points;
  double mean_edge = 0.0;   ///< mean edge weight
  double range_eps = 0.0;   ///< ε of the small range queries
  netclus::ClusterSpec spec;  ///< ε-Link, eps = cluster_eps_edges * mean
};

/// Builds the world from `world.nodes`, `world.points`,
/// `world.range_eps_edges` and `world.cluster_eps_edges`.
ServeWorld MakeServeWorld(const Params& p, uint64_t seed);

/// Mean edge weight of `net`.
double MeanEdgeWeight(const netclus::Network& net);

/// Request mix: shares of each kind (the remainder is membership), the
/// nearest-k, the Zipf-skewed distance pair pool and the soft deadline.
struct MixSpec {
  double distance_share = 0.0;
  double range_share = 0.0;
  double nearest_share = 0.0;
  uint32_t nearest_k = 1;
  uint64_t pair_pool = 1;
  double zipf_s = 1.0;
  double deadline_share = 0.0;
  double deadline_ms = 0.0;
};

/// Reads `<prefix>.distance`, `.range`, `.nearest`, `.nearest_k`,
/// `.pair_pool`, `.zipf_s`, `.deadline_share` and `.deadline_ms`.
MixSpec ReadMix(const Params& p, const std::string& prefix);

/// Deterministic request sequence over the boot points of `world`.
/// Distance pairs are Zipf-ranked draws from a fixed pool of random
/// pairs, so popular pairs repeat and the tail does not fit a cache.
class RequestStream {
 public:
  RequestStream(const ServeWorld& world, const MixSpec& mix, uint64_t seed);
  netclus::QueryRequest Next();

 private:
  MixSpec mix_;
  double range_eps_;
  netclus::PointId num_points_;
  netclus::Rng rng_;
  std::shared_ptr<const Zipf> zipf_;
  std::vector<std::pair<netclus::PointId, netclus::PointId>> pool_;
};

/// Outcome of one load phase.
struct LoadResult {
  std::vector<double> latency_ms;  ///< successful requests only
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t refused = 0;          ///< kUnavailable (admission)
  uint64_t deadline_missed = 0;  ///< kDeadlineExceeded
  uint64_t errors = 0;           ///< any other failure
  std::string first_error;
  double elapsed_s = 0.0;
  /// Open loop only: how late each send was against its schedule, and
  /// how many requests were still in flight when the schedule ended.
  std::vector<double> lateness_ms;
  uint64_t backlog_end = 0;
  /// Every `sample_every`-th successful (request, response), for replay.
  std::vector<std::pair<netclus::QueryRequest, netclus::QueryResponse>>
      sample;

  uint64_t failed() const { return refused + deadline_missed + errors; }
};

/// Open loop: sends at `rate` requests/s for `seconds` whatever the
/// server's state; each latency runs from the request's scheduled send
/// to the moment its completion was observed. One thread sends and
/// collects: it sleeps until the next send, polling the in-flight
/// futures every 20 µs while any are outstanding, so completions are
/// stamped independently of their order.
LoadResult RunOpenLoop(netclus::QueryServer* server, RequestStream* stream,
                       double rate, double seconds, size_t sample_every);

/// Closed loop from one thread: keeps `window` requests in flight for
/// `seconds`, or until `max_requests` were sent when that is non-zero.
LoadResult RunWindow(netclus::QueryServer* server, RequestStream* stream,
                     size_t window, double seconds, uint64_t max_requests,
                     size_t sample_every);

/// Counts a failed request in `out` by its kind.
void CountFailure(const netclus::Status& s, LoadResult* out);

/// Replays `sample` through the inline ExecuteQuery path over the boot
/// world and counts answers whose payload differs from the served one.
/// Requests that fail inline count as mismatches too.
uint64_t CountReplayMismatches(
    const netclus::NetworkView& view, const netclus::ClusterOutput& clusters,
    const std::vector<std::pair<netclus::QueryRequest,
                                netclus::QueryResponse>>& sample,
    std::string* first_mismatch);

/// Inline cost of one query kind: ExecuteQueryInto p50 wall time on
/// one thread without an accelerator, and the exact traversal counters
/// per query.
struct KindCost {
  double exec_us_p50 = 0.0;
  double settled = 0.0;    ///< mean settled nodes per query
  double heap_pops = 0.0;  ///< mean heap pops per query
};

/// Runs `per_kind` requests of each kind (distance, range, nearest,
/// membership) from a stream seeded with `seed` through
/// ExecuteQueryInto over `frozen`, inside graph.ExecuteQueryInto spans.
std::map<netclus::QueryKind, KindCost> MeasureInlineKinds(
    const ServeWorld& world, const netclus::NetworkView& view,
    const netclus::FrozenGraph& frozen, const netclus::ClusterOutput& clusters,
    const MixSpec& mix, uint64_t seed, uint64_t per_kind);

/// Stable short name of a query kind used in metric names.
const char* KindMetricName(netclus::QueryKind k);

}  // namespace perfbench

#endif  // NETCLUS_PERFBENCH_WORLD_H_
