#include "server/query.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace netclus {
namespace {

/// Graph-layer scratch for the raw dense-id results of range / nearest
/// traversals, reused across calls on the same thread so the steady
/// state stays allocation-free (the response's own vector holds the
/// translated ObjectId results).
std::vector<RangeResult>* RawResultScratch() {
  static thread_local std::vector<RangeResult> scratch;
  return &scratch;
}

}  // namespace

const char* QueryKindName(QueryKind k) {
  switch (k) {
    case QueryKind::kPointDistance:
      return "distance";
    case QueryKind::kRange:
      return "range";
    case QueryKind::kNearestObject:
      return "nearest";
    case QueryKind::kClusterMembership:
      return "membership";
    case QueryKind::kHealthz:
      return "healthz";
  }
  return "unknown";
}

const char* ServerHealthName(ServerHealth h) {
  switch (h) {
    case ServerHealth::kServing:
      return "serving";
    case ServerHealth::kDegraded:
      return "degraded";
    case ServerHealth::kStopping:
      return "stopping";
  }
  return "unknown";
}

bool ResponsePayloadsEqual(const QueryResponse& a, const QueryResponse& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case QueryKind::kPointDistance:
      return a.distance == b.distance;
    case QueryKind::kRange:
    case QueryKind::kNearestObject:
      return a.results == b.results;
    case QueryKind::kClusterMembership:
      return a.cluster_id == b.cluster_id;
    case QueryKind::kHealthz:
      return a.health == b.health;
  }
  return false;
}

Status ValidateQueryRequest(const NetworkView& view, const QueryRequest& req,
                            const ClusterOutput* clusters,
                            const IdentityMap* ids) {
  if (req.kind == QueryKind::kHealthz) {
    return Status::InvalidArgument(
        "healthz is answered by the query server's admission path, not the "
        "query executor");
  }
  if (!(req.deadline_ms >= 0.0) || !std::isfinite(req.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be finite and >= 0");
  }
  const PointId n = view.num_points();
  const PointId pa = ResolveObject(ids, req.a, n);
  if (pa == kInvalidPointId || pa >= n) {
    return Status::InvalidArgument("query object a=" + std::to_string(req.a) +
                                   " does not name a point of this epoch (" +
                                   std::to_string(n) + " points)");
  }
  switch (req.kind) {
    case QueryKind::kPointDistance: {
      const PointId pb = ResolveObject(ids, req.b, n);
      if (pb == kInvalidPointId || pb >= n) {
        return Status::InvalidArgument(
            "query object b=" + std::to_string(req.b) +
            " does not name a point of this epoch (" + std::to_string(n) +
            " points)");
      }
      break;
    }
    case QueryKind::kRange:
      if (!(req.eps >= 0.0) || !std::isfinite(req.eps)) {
        return Status::InvalidArgument("range eps must be finite and >= 0");
      }
      break;
    case QueryKind::kNearestObject:
      if (req.k == 0) {
        return Status::InvalidArgument("nearest-object k must be >= 1");
      }
      break;
    case QueryKind::kClusterMembership:
      if (clusters == nullptr) {
        return Status::NotFound(
            "no ClusterOutput available for membership queries (serve with a "
            "cluster_spec, or pass clusters inline)");
      }
      if (pa >= clusters->clustering.assignment.size()) {
        return Status::OutOfRange(
            "membership object " + std::to_string(req.a) +
            " not covered by the cached clustering (" +
            std::to_string(clusters->clustering.assignment.size()) +
            " points)");
      }
      break;
    case QueryKind::kHealthz:
      break;  // unreachable — rejected above
  }
  return Status::OK();
}

Status ExecuteQueryInto(const NetworkView& view, const FrozenGraph* frozen,
                        const QueryRequest& req, TraversalWorkspace* ws,
                        const DistanceCache* cache,
                        const ClusterOutput* clusters, QueryResponse* out,
                        const IdentityMap* ids) {
  NETCLUS_RETURN_IF_ERROR(ValidateQueryRequest(view, req, clusters, ids));
  out->kind = req.kind;
  out->distance = 0.0;
  out->cluster_id = 0;
  out->health = ServerHealth::kServing;
  out->epoch = 0;
  out->results.clear();
  ws->cancel.triggered = false;

  // Validation proved both ids resolve; from here the traversal runs on
  // this epoch's dense numbering and only the results translate back.
  // One body serves both traversal graphs: the snapshot when there is
  // one, the view itself otherwise (bit-identical results).
  const PointId pa = ResolveObject(ids, req.a, view.num_points());
  auto execute = [&](const auto& graph) {
    switch (req.kind) {
      case QueryKind::kPointDistance: {
        // The cache keys on the durable ids, so a hit names the same
        // objects in every epoch that shares the cache; a == b is 0 and
        // never touches it.
        if (cache != nullptr && req.a != req.b &&
            cache->Lookup(req.a, req.b, &out->distance)) {
          break;
        }
        const PointId pb = ResolveObject(ids, req.b, view.num_points());
        out->distance = PointNetworkDistance(view, graph, pa, pb, ws);
        // A cancelled expansion yields a garbage partial value: never let
        // it poison the cache.
        if (cache != nullptr && req.a != req.b && !ws->cancel.triggered) {
          cache->Store(req.a, req.b, out->distance);
        }
        break;
      }
      case QueryKind::kRange: {
        std::vector<RangeResult>* raw = RawResultScratch();
        raw->clear();
        RangeQuery(view, graph, pa, req.eps, ws, raw);
        out->results.reserve(raw->size());
        for (const RangeResult& r : *raw) {
          out->results.push_back(
              QueryResult{ObjectOfPoint(ids, r.id), r.dist});
        }
        // The graph traversal emits in settle or dense-id order, neither
        // of which survives renumbering; canonicalize on the durable ids
        // so every execution style — and every epoch — agrees.
        std::sort(out->results.begin(), out->results.end(),
                  [](const QueryResult& a, const QueryResult& b) {
                    return a.id < b.id;
                  });
        break;
      }
      case QueryKind::kNearestObject: {
        std::vector<RangeResult>* raw = RawResultScratch();
        raw->clear();
        // Already ordered by (distance, dense PointId) — that order is the
        // answer; translation preserves it.
        KNearestNeighbors(view, graph, pa, req.k, ws, raw);
        out->results.reserve(raw->size());
        for (const RangeResult& r : *raw) {
          out->results.push_back(
              QueryResult{ObjectOfPoint(ids, r.id), r.dist});
        }
        break;
      }
      case QueryKind::kClusterMembership:
        out->cluster_id = clusters->clustering.assignment[pa];
        break;
      case QueryKind::kHealthz:
        break;  // unreachable — rejected by validation
    }
  };
  if (frozen != nullptr) {
    execute(*frozen);
  } else {
    execute(view);
  }
  if (ws->cancel.triggered) {
    // The traversal abandoned work mid-expansion; whatever landed in
    // `out` is a partial non-answer. Scrub it so no caller can serve it.
    out->distance = 0.0;
    out->results.clear();
    return Status::DeadlineExceeded("query cancelled mid-traversal: " +
                                    std::string(QueryKindName(req.kind)) +
                                    " query on object " +
                                    std::to_string(req.a));
  }
  return Status::OK();
}

Result<QueryResponse> ExecuteQuery(const NetworkView& view,
                                   const FrozenGraph* frozen,
                                   const QueryRequest& req,
                                   const DistanceCache* cache,
                                   const ClusterOutput* clusters,
                                   const IdentityMap* ids) {
  TraversalWorkspace ws(view.num_nodes());
  QueryResponse out;
  NETCLUS_RETURN_IF_ERROR(
      ExecuteQueryInto(view, frozen, req, &ws, cache, clusters, &out, ids));
  return out;
}

Status ValidateServedBatch(const NetworkView& view, const FrozenGraph* frozen,
                           const std::vector<QueryRequest>& requests,
                           const std::vector<QueryResponse>& responses,
                           const ClusterOutput* clusters,
                           const IdentityMap* ids) {
  if (requests.size() != responses.size()) {
    return Status::Internal("served batch size mismatch: " +
                            std::to_string(requests.size()) + " requests vs " +
                            std::to_string(responses.size()) + " responses");
  }
  TraversalWorkspace ws(view.num_nodes());
  QueryResponse replay;
  for (size_t i = 0; i < requests.size(); ++i) {
    NETCLUS_RETURN_IF_ERROR(ExecuteQueryInto(view, frozen, requests[i], &ws,
                                             /*cache=*/nullptr, clusters,
                                             &replay, ids));
    if (!ResponsePayloadsEqual(replay, responses[i])) {
      return Status::Internal(
          "served response diverges from the direct path: batch index " +
          std::to_string(i) + ", kind " +
          QueryKindName(requests[i].kind) + ", object " +
          std::to_string(requests[i].a));
    }
  }
  return Status::OK();
}

}  // namespace netclus
