// The unified query vocabulary of the clustering service: one tagged
// request/response pair that every read path in the system speaks.
//
// Callers describe a read declaratively with a QueryRequest (a kind tag
// plus that kind's parameters) and execute it through ExecuteQuery,
// which dispatches onto the graph-layer primitives
// (graph/network_distance.h) and returns one QueryResponse. The same
// vocabulary serves two execution styles with bit-identical results:
//
//   * inline — a caller holding a NetworkView runs the query
//     synchronously on its own thread (frozen may be null);
//   * served — the QueryServer (server/query_server.h) batches
//     concurrent requests against a pinned FrozenGraph epoch and
//     executes them across a thread pool.
//
// The equivalence is not aspirational: both styles funnel into the
// same ExecuteQueryInto core, and ValidateServedBatch replays a served
// batch through the inline path and demands payload equality down to
// the last double bit. The query server runs that validator on every
// batch when QueryServerOptions::validate_replay is set (and always
// under -DNETCLUS_VALIDATE=ON builds).
//
// Identity: requests and responses speak durable ObjectIds, never the
// epoch-relative dense point numbering (netclus-lint bans the dense id
// type from this header and from src/net/). Translation in both
// directions happens inside ExecuteQueryInto through the IdentityMap of
// the epoch being served; a null map means the identity mapping, which
// is exact for inline runs over a standalone view and for a server's
// boot epoch. A held ObjectId keeps naming the same physical object
// across every republication and across restarts.
#ifndef NETCLUS_SERVER_QUERY_H_
#define NETCLUS_SERVER_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/network_distance.h"
#include "graph/network_view.h"
#include "graph/types.h"
#include "netclus.h"
#include "server/distance_cache.h"
#include "server/identity_map.h"

namespace netclus {

/// The read operations the service answers.
enum class QueryKind : uint8_t {
  kPointDistance,      ///< exact network distance d(a, b) (Definition 4)
  kRange,              ///< all objects within eps of `a` (incl. `a` itself)
  kNearestObject,      ///< the k objects nearest to `a` (excluding `a`)
  kClusterMembership,  ///< cluster id of `a` in the epoch's ClusterOutput
  kHealthz,            ///< server health probe (served path only)
};

/// Stable lower-case name of `k` ("distance", "range", "nearest",
/// "membership", "healthz") — the vocabulary of netclus_cli's serve
/// workload mix.
const char* QueryKindName(QueryKind k);

/// \brief The query server's serving condition (DESIGN.md §13).
///
/// Healthy serving is kServing. kDegraded means the server still
/// answers queries from the last good epoch but something durable is
/// wrong — repeated publish failures, a broken WAL, or a sustained
/// deadline-miss rate — so clients should shed load or alert.
/// kStopping is the drain window after Stop() begins.
enum class ServerHealth : uint8_t {
  kServing,
  kDegraded,
  kStopping,
};

/// Stable lower-case name ("serving", "degraded", "stopping").
const char* ServerHealthName(ServerHealth h);

/// \brief One read, declaratively: a kind tag plus that kind's
/// parameters. Only the fields of the selected kind are read. Object
/// references are durable ObjectIds (stable across epochs).
struct QueryRequest {
  QueryKind kind = QueryKind::kPointDistance;
  /// Primary object: the distance source, range/nearest center, or the
  /// membership subject.
  ObjectId a = kInvalidObjectId;
  /// kPointDistance only: the distance target.
  ObjectId b = kInvalidObjectId;
  /// kRange only: the query radius (>= 0, finite).
  double eps = 0.0;
  /// kNearestObject only: how many neighbors (>= 1).
  uint32_t k = 1;
  /// Soft deadline relative to submission, in milliseconds; 0 (the
  /// default) means no deadline. A served request whose deadline passes
  /// before execution starts is shed with kDeadlineExceeded; one whose
  /// deadline passes mid-traversal is cooperatively cancelled and
  /// resolves the same way. The inline path ignores it (its workspace
  /// token carries no deadline).
  double deadline_ms = 0.0;

  /// Returns a copy with `deadline_ms` set — submission-site sugar.
  QueryRequest WithDeadline(double ms) const {
    QueryRequest r = *this;
    r.deadline_ms = ms;
    return r;
  }

  static QueryRequest PointDistance(ObjectId a, ObjectId b) {
    QueryRequest r;
    r.kind = QueryKind::kPointDistance;
    r.a = a;
    r.b = b;
    return r;
  }
  static QueryRequest Range(ObjectId center, double eps) {
    QueryRequest r;
    r.kind = QueryKind::kRange;
    r.a = center;
    r.eps = eps;
    return r;
  }
  static QueryRequest NearestObject(ObjectId center, uint32_t k = 1) {
    QueryRequest r;
    r.kind = QueryKind::kNearestObject;
    r.a = center;
    r.k = k;
    return r;
  }
  static QueryRequest ClusterMembership(ObjectId p) {
    QueryRequest r;
    r.kind = QueryKind::kClusterMembership;
    r.a = p;
    return r;
  }
  static QueryRequest Healthz() {
    QueryRequest r;
    r.kind = QueryKind::kHealthz;
    r.a = 0;
    return r;
  }
};

/// One object found by a range / nearest query: its durable ObjectId and
/// its exact network distance from the query center.
struct QueryResult {
  ObjectId id = kInvalidObjectId;
  double dist = 0.0;
};

/// Exact equality, distance compared bitwise — the comparison the served
/// batch replay validator relies on.
inline bool operator==(const QueryResult& a, const QueryResult& b) {
  return a.id == b.id && a.dist == b.dist;
}
inline bool operator!=(const QueryResult& a, const QueryResult& b) {
  return !(a == b);
}

/// \brief The unified result. Only the fields of the request's kind are
/// populated; `epoch` is stamped by the query server (0 on the inline
/// path, where there is no epoch to name).
struct QueryResponse {
  QueryKind kind = QueryKind::kPointDistance;
  /// kPointDistance: d(a, b); kInfDist when disconnected.
  double distance = 0.0;
  /// kRange (sorted by ascending ObjectId) / kNearestObject (sorted by
  /// ascending distance, ties by traversal order): the matching objects.
  std::vector<QueryResult> results;
  /// kClusterMembership: cluster id in [0, num_clusters) or kNoise.
  int cluster_id = 0;
  /// kHealthz: the server's condition at answer time. Also stamped on
  /// every served response (a free health signal riding along); the
  /// inline path leaves the default.
  ServerHealth health = ServerHealth::kServing;
  /// FrozenGraph epoch that served this response; 0 for inline runs.
  uint64_t epoch = 0;
};

/// Payload equality (kind + every kind field, doubles compared exactly);
/// `epoch` is excluded — it names the serving snapshot, not the answer.
bool ResponsePayloadsEqual(const QueryResponse& a, const QueryResponse& b);

/// Rejects malformed requests up front: object ids must resolve under
/// `ids` (null = identity mapping over [0, num_points)), eps finite and
/// >= 0, k >= 1, deadline_ms finite and >= 0, and kClusterMembership
/// requires `clusters` (the epoch's cached ClusterOutput) to exist.
/// kHealthz is rejected here — it is answered by the query server's
/// admission path, never by the executor.
Status ValidateQueryRequest(const NetworkView& view, const QueryRequest& req,
                            const ClusterOutput* clusters,
                            const IdentityMap* ids = nullptr);

/// \brief The single execution core both styles funnel into.
///
/// Runs `req` against `view`, traversing `frozen` when non-null (a
/// snapshot of `view`, see InMemoryNetworkView::Freeze()) and the view
/// otherwise — results are bit-identical either way. `ws` provides the
/// reusable traversal state (one per concurrent caller; each query
/// server worker owns one). `cache` may be null (= no memo) and is read
/// only by kPointDistance: a pair a != b is looked up by its ObjectIds,
/// and on a miss the exact distance is computed and stored unless the
/// expansion was cancelled. The cache never changes the payload, only
/// the work done.
/// `clusters` is consulted only by kClusterMembership. `ids` translates
/// request ObjectIds into the epoch's dense numbering on the way in and
/// result ids back on the way out (null = identity mapping). `out` is
/// overwritten, reusing its vector capacity — the zero-allocation steady
/// state for serving loops.
///
/// Cancellation: the run honors `ws->cancel` (resetting its `triggered`
/// latch first). When its deadline passes mid-traversal the function
/// returns kDeadlineExceeded and `out` holds no partial payload a
/// caller could mistake for an answer. With an unarmed token (the
/// default) behavior and payloads are bit-identical to a run with no
/// token at all.
Status ExecuteQueryInto(const NetworkView& view, const FrozenGraph* frozen,
                        const QueryRequest& req, TraversalWorkspace* ws,
                        const DistanceCache* cache,
                        const ClusterOutput* clusters, QueryResponse* out,
                        const IdentityMap* ids = nullptr);

/// Convenience wrapper over ExecuteQueryInto: allocates the workspace
/// and returns the response by value. The one-shot inline path; serving
/// loops and algorithms use ExecuteQueryInto with a workspace they keep.
Result<QueryResponse> ExecuteQuery(const NetworkView& view,
                                   const FrozenGraph* frozen,
                                   const QueryRequest& req,
                                   const DistanceCache* cache = nullptr,
                                   const ClusterOutput* clusters = nullptr,
                                   const IdentityMap* ids = nullptr);

/// \brief The served-batch replay validator.
///
/// Re-executes every request of a served batch through the inline path
/// (ExecuteQueryInto, no cache) against the same `view`/`frozen`/
/// `ids` the batch was pinned to, and returns Internal on the first
/// response whose payload is not bit-identical. This is the contract
/// that makes "inline or served, same answer" enforceable rather than
/// assumed.
Status ValidateServedBatch(const NetworkView& view, const FrozenGraph* frozen,
                           const std::vector<QueryRequest>& requests,
                           const std::vector<QueryResponse>& responses,
                           const ClusterOutput* clusters,
                           const IdentityMap* ids = nullptr);

}  // namespace netclus

#endif  // NETCLUS_SERVER_QUERY_H_
