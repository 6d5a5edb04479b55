#include "world.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <deque>
#include <future>
#include <thread>

#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "trace.h"

namespace perfbench {

using netclus::ClusterOutput;
using netclus::FrozenGraph;
using netclus::NetworkView;
using netclus::PointId;
using netclus::QueryKind;
using netclus::QueryRequest;
using netclus::QueryResponse;
using netclus::QueryServer;
using netclus::Result;
using netclus::Rng;

double MeanEdgeWeight(const netclus::Network& net) {
  double sum = 0.0;
  size_t n = 0;
  for (const netclus::Edge& e : net.Edges()) {
    sum += e.weight;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

ServeWorld MakeServeWorld(const Params& p, uint64_t seed) {
  ServeWorld w;
  w.gen = netclus::GenerateRoadNetwork(
      {static_cast<netclus::NodeId>(p.Int("world.nodes")), 1.3, 0.3,
       Rng::DeriveSeed(seed, 1)});
  Result<netclus::PointSet> pts = netclus::GenerateUniformPoints(
      w.gen.net, static_cast<PointId>(p.Int("world.points")),
      Rng::DeriveSeed(seed, 2));
  DieIf(pts.status(), "point generation");
  w.points = std::move(pts.value());
  w.mean_edge = MeanEdgeWeight(w.gen.net);
  w.range_eps = p.Num("world.range_eps_edges") * w.mean_edge;
  netclus::EpsLinkOptions eo;
  eo.eps = p.Num("world.cluster_eps_edges") * w.mean_edge;
  w.spec = netclus::MakeSpec(eo);
  return w;
}

MixSpec ReadMix(const Params& p, const std::string& prefix) {
  MixSpec m;
  m.distance_share = p.Num(prefix + ".distance");
  m.range_share = p.Num(prefix + ".range");
  m.nearest_share = p.Num(prefix + ".nearest");
  m.nearest_k = static_cast<uint32_t>(p.Int(prefix + ".nearest_k"));
  m.pair_pool = p.Int(prefix + ".pair_pool");
  m.zipf_s = p.Num(prefix + ".zipf_s");
  m.deadline_share = p.Num(prefix + ".deadline_share");
  m.deadline_ms = p.Num(prefix + ".deadline_ms");
  if (m.distance_share + m.range_share + m.nearest_share > 1.0 + 1e-9) {
    Die("mix '" + prefix + "' shares exceed 1");
  }
  if (m.pair_pool == 0) Die("mix '" + prefix + "' needs a pair pool");
  return m;
}

RequestStream::RequestStream(const ServeWorld& world, const MixSpec& mix,
                             uint64_t seed)
    : mix_(mix),
      range_eps_(world.range_eps),
      num_points_(world.points.size()),
      rng_(Rng::DeriveSeed(seed, 11)) {
  // The pool and its Zipf ranking depend on the world only, so every
  // stream over one world shares the same popular pairs.
  Rng pool_rng(Rng::DeriveSeed(num_points_, 0x9a11));
  if (mix_.distance_share > 0.0) {
    pool_.reserve(mix_.pair_pool);
    for (uint64_t i = 0; i < mix_.pair_pool; ++i) {
      pool_.emplace_back(
          static_cast<PointId>(pool_rng.NextBounded(num_points_)),
          static_cast<PointId>(pool_rng.NextBounded(num_points_)));
    }
    zipf_ = std::make_shared<const Zipf>(mix_.pair_pool, mix_.zipf_s);
  }
}

QueryRequest RequestStream::Next() {
  const double u = rng_.NextDouble();
  const PointId a = static_cast<PointId>(rng_.NextBounded(num_points_));
  QueryRequest r;
  if (u < mix_.distance_share) {
    const auto& [x, y] = pool_[zipf_->Sample(&rng_)];
    r = QueryRequest::PointDistance(x, y);
  } else if (u < mix_.distance_share + mix_.range_share) {
    r = QueryRequest::Range(a, range_eps_);
  } else if (u < mix_.distance_share + mix_.range_share +
                     mix_.nearest_share) {
    r = QueryRequest::NearestObject(a, mix_.nearest_k);
  } else {
    r = QueryRequest::ClusterMembership(a);
  }
  if (mix_.deadline_share > 0.0 && rng_.NextDouble() < mix_.deadline_share) {
    r.deadline_ms = mix_.deadline_ms;
  }
  return r;
}

void CountFailure(const netclus::Status& s, LoadResult* out) {
  if (s.IsUnavailable()) {
    ++out->refused;
  } else if (s.IsDeadlineExceeded()) {
    ++out->deadline_missed;
  } else {
    ++out->errors;
  }
  if (out->first_error.empty()) out->first_error = s.ToString();
}

namespace {

struct InFlight {
  std::future<Result<QueryResponse>> future;
  QueryRequest req;
  double scheduled = 0.0;
  uint64_t span_id = 0;
  uint64_t request_id = 0;
  uint64_t index = 0;
};

// Classifies one completed request into `out`.
void Account(Result<QueryResponse> r, InFlight* f, double done,
             size_t sample_every, LoadResult* out) {
  Tracer::Record(f->span_id, "request", f->scheduled, done, 0,
                 f->request_id);
  if (r.ok()) {
    ++out->ok;
    out->latency_ms.push_back((done - f->scheduled) * 1e3);
    if (sample_every > 0 && f->index % sample_every == 0) {
      out->sample.emplace_back(f->req, std::move(r.value()));
    }
    return;
  }
  CountFailure(r.status(), out);
}

// Linux rounds a sleeping thread's wake-up up by its timer slack (50 µs
// by default); the generator's send times want it near zero.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

InFlight SubmitOne(QueryServer* server, RequestStream* stream, double scheduled,
                   uint64_t index) {
  InFlight f;
  f.req = stream->Next();
  f.scheduled = scheduled;
  f.index = index;
  if (Tracer::enabled()) {
    f.span_id = Tracer::NewId();
    f.request_id = Tracer::NewId();
  }
  Span submit("server.Submit", f.request_id, f.span_id);
  f.future = server->Submit(f.req);
  return f;
}

}  // namespace

LoadResult RunOpenLoop(QueryServer* server, RequestStream* stream, double rate,
                       double seconds, size_t sample_every) {
  // One thread both sends on schedule and stamps completions: between
  // sends it sweeps the in-flight futures every kPollSeconds, and with
  // nothing in flight it sleeps until the next send. Completions are
  // stamped in whatever order they finish.
  constexpr double kPollSeconds = 20e-6;
  TightenTimerSlack();
  LoadResult out;
  std::vector<InFlight> live;
  const auto start = std::chrono::steady_clock::now();
  const double t0 =
      std::chrono::duration<double>(start.time_since_epoch()).count();
  const uint64_t total = static_cast<uint64_t>(std::ceil(seconds * rate));
  uint64_t next = 0;
  bool schedule_done = false;
  for (;;) {
    double now = Now();
    while (next < total && t0 + static_cast<double>(next) / rate <= now) {
      const double scheduled = t0 + static_cast<double>(next) / rate;
      out.lateness_ms.push_back((now - scheduled) * 1e3);
      live.push_back(SubmitOne(server, stream, scheduled, next));
      ++next;
      now = Now();
    }
    for (size_t i = 0; i < live.size();) {
      if (live[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Account(live[i].future.get(), &live[i], Now(), sample_every, &out);
        live[i] = std::move(live.back());
        live.pop_back();
      } else {
        ++i;
      }
    }
    if (next == total && !schedule_done) {
      // Backlog at the end of the schedule: sent but not yet complete.
      schedule_done = true;
      out.backlog_end = live.size();
      out.elapsed_s = Now() - t0;
    }
    if (schedule_done && live.empty()) break;
    double wake = next < total ? t0 + static_cast<double>(next) / rate : 1e300;
    if (!live.empty()) wake = std::min(wake, Now() + kPollSeconds);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(wake - t0)));
  }
  out.attempted = total;
  return out;
}

LoadResult RunWindow(QueryServer* server, RequestStream* stream,
                     size_t window, double seconds, uint64_t max_requests,
                     size_t sample_every) {
  LoadResult out;
  std::deque<InFlight> inflight;
  const double t0 = Now();
  uint64_t index = 0;
  while (true) {
    const bool open = Now() - t0 < seconds &&
                      (max_requests == 0 || index < max_requests);
    while (open && inflight.size() < window) {
      inflight.push_back(SubmitOne(server, stream, Now(), index++));
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    Result<QueryResponse> r = f.future.get();
    Account(std::move(r), &f, Now(), sample_every, &out);
  }
  out.attempted = index;
  out.elapsed_s = Now() - t0;
  return out;
}

uint64_t CountReplayMismatches(
    const NetworkView& view, const ClusterOutput& clusters,
    const std::vector<std::pair<QueryRequest, QueryResponse>>& sample,
    std::string* first_mismatch) {
  uint64_t mismatches = 0;
  for (const auto& [req, served] : sample) {
    Result<QueryResponse> inline_r =
        netclus::ExecuteQuery(view, nullptr, req, nullptr, &clusters);
    if (inline_r.ok() && netclus::ResponsePayloadsEqual(inline_r.value(),
                                                        served)) {
      continue;
    }
    ++mismatches;
    if (first_mismatch->empty()) {
      *first_mismatch = std::string("replay mismatch on ") +
                        netclus::QueryKindName(req.kind) + " object " +
                        std::to_string(req.a) +
                        (inline_r.ok() ? "" : ": " + inline_r.status().ToString());
    }
  }
  return mismatches;
}

const char* KindMetricName(QueryKind k) {
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

std::map<QueryKind, KindCost> MeasureInlineKinds(
    const ServeWorld& world, const NetworkView& view, const FrozenGraph& frozen,
    const ClusterOutput& clusters, const MixSpec& mix, uint64_t seed,
    uint64_t per_kind) {
  std::map<QueryKind, KindCost> out;
  netclus::TraversalWorkspace ws(view.num_nodes());
  QueryResponse resp;
  const QueryKind kinds[] = {QueryKind::kPointDistance, QueryKind::kRange,
                             QueryKind::kNearestObject,
                             QueryKind::kClusterMembership};
  for (QueryKind kind : kinds) {
    MixSpec only = mix;
    only.distance_share = kind == QueryKind::kPointDistance ? 1.0 : 0.0;
    only.range_share = kind == QueryKind::kRange ? 1.0 : 0.0;
    only.nearest_share = kind == QueryKind::kNearestObject ? 1.0 : 0.0;
    only.deadline_share = 0.0;
    RequestStream stream(world, only, Rng::DeriveSeed(seed, 100 + int(kind)));
    std::vector<double> us;
    netclus::TraversalCounters before = netclus::LocalTraversalCounters();
    for (uint64_t i = 0; i < per_kind; ++i) {
      QueryRequest req = stream.Next();
      const double t = Now();
      netclus::Status s;
      {
        Span span("graph.ExecuteQueryInto");
        s = netclus::ExecuteQueryInto(view, &frozen, req, &ws, nullptr,
                                      &clusters, &resp);
      }
      us.push_back((Now() - t) * 1e6);
      DieIf(s, "inline query");
    }
    netclus::TraversalCounters delta =
        netclus::LocalTraversalCounters() - before;
    KindCost c;
    c.exec_us_p50 = Quantile(us, 0.5);
    const double n = static_cast<double>(per_kind);
    c.settled = static_cast<double>(delta.settled_nodes) / n;
    c.heap_pops = static_cast<double>(delta.heap_pops) / n;
    out[kind] = c;
  }
  return out;
}

}  // namespace perfbench
