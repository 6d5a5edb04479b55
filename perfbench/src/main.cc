// netclus_perfbench: runs one benchmark workload and prints one JSON
// result object as the last line of standard output.
//
//   netclus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--setup-reps R] [--set key=value]...
//
// The workload parameters come as --set pairs (perfbench/run.py passes
// them from perfbench/workloads.json). With --trace 0 the run measures
// the end-to-end metrics with tracing off. With --trace 1 it runs the
// workload twice for half the time each — untraced, then traced — and
// reports every per-layer metric plus trace.overhead_pct, the change in
// cpu_per_op_ms between the two halves. The first 50000 spans of the
// traced half go to DIR/trace-<workload>-<seed>.jsonl.
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "graph/dijkstra.h"
#include "net/wire.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using netclus::QueryKind;

namespace {

// Every per-layer metric a traced run reports, with its unit. A
// workload that does not exercise a layer leaves its metrics at 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.exec_us.distance", "us"},
    {"graph.exec_us.range", "us"},
    {"graph.exec_us.nearest", "us"},
    {"graph.exec_us.membership", "us"},
    {"graph.settled.distance", "count"},
    {"graph.settled.range", "count"},
    {"graph.settled.nearest", "count"},
    {"graph.settled.membership", "count"},
    {"graph.heap_pops.distance", "count"},
    {"graph.heap_pops.range", "count"},
    {"graph.heap_pops.nearest", "count"},
    {"graph.heap_pops.membership", "count"},
    {"graph.freeze_ms", "ms"},
    {"graph.settled.kmedoids", "count"},
    {"graph.settled.dbscan", "count"},
    {"graph.settled.epslink", "count"},
    {"graph.settled.singlelink", "count"},
    {"index.build_s", "s"},
    {"index.pruned_swap_share", "ratio"},
    {"index.cache_hit_rate", "ratio"},
    {"index.settled_saved_share", "ratio"},
    {"core.kmedoids_first_assign_ms", "ms"},
    {"core.kmedoids_swap_ms", "ms"},
    {"core.kmedoids_swaps_attempted", "count"},
    {"core.singlelink_nodes_expanded", "count"},
    {"core.singlelink_max_pair_heap", "count"},
    {"core.recluster_ms", "ms"},
    {"storage.logical.kmedoids", "count"},
    {"storage.logical.dbscan", "count"},
    {"storage.logical.epslink", "count"},
    {"storage.logical.singlelink", "count"},
    {"storage.phys_reads.kmedoids", "count"},
    {"storage.phys_reads.dbscan", "count"},
    {"storage.phys_reads.epslink", "count"},
    {"storage.phys_reads.singlelink", "count"},
    {"storage.hit_rate.kmedoids", "ratio"},
    {"storage.hit_rate.dbscan", "ratio"},
    {"storage.hit_rate.epslink", "ratio"},
    {"storage.hit_rate.singlelink", "ratio"},
    {"server.start_s", "s"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.queue_wait_p99_ms", "ms"},
    {"server.batch_size_mean", "count"},
    {"server.batch_ms_mean", "ms"},
    {"server.execute_share", "ratio"},
    {"server.deadline_miss_share", "ratio"},
    {"server.apply_ms", "ms"},
    {"server.publish_wait_ms", "ms"},
    {"server.publish_full_ms", "ms"},
    {"server.publish_incremental_ms", "ms"},
    {"server.wal_records", "count"},
    {"server.checkpoints", "count"},
    {"server.retired_epochs_max", "count"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.transport_us", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.client_retries", "count"},
    {"net.reconnects", "count"},
    {"trace.overhead_pct", "%"},
};

template <typename T>
double MedianOf(int reps, T&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return Quantile(v, 0.5);
}

}  // namespace

void ZeroLayerMetrics(Metrics* layer) {
  for (const LayerMetric& m : kLayerMetrics) layer->Set(m.name, 0.0, m.unit);
}

std::map<QueryKind, KindCost> ProbeGraphLayer(const ServeWorld& world,
                                              const MixSpec& mix,
                                              uint64_t seed, uint64_t per_kind,
                                              Metrics* layer) {
  netclus::InMemoryNetworkView view(world.gen.net, world.points);
  std::optional<netclus::FrozenGraph> frozen;
  layer->Set("graph.freeze_ms", MedianOf(3, [&] {
               const double t0 = Now();
               Span span("graph.Freeze");
               netclus::Result<netclus::FrozenGraph> f = view.Freeze();
               DieIf(f.status(), "Freeze");
               frozen.emplace(std::move(f.value()));
               return (Now() - t0) * 1e3;
             }),
             "ms");
  netclus::ClusterOutput clusters;
  uint64_t settled = 0;
  layer->Set("core.recluster_ms", MedianOf(3, [&] {
               const netclus::TraversalCounters before =
                   netclus::LocalTraversalCounters();
               const double t0 = Now();
               Span span("core.RunClustering.epslink");
               netclus::Result<netclus::ClusterOutput> r =
                   netclus::RunClustering(view, world.spec);
               DieIf(r.status(), "RunClustering epslink");
               clusters = std::move(r.value());
               settled = (netclus::LocalTraversalCounters() - before)
                             .settled_nodes;
               return (Now() - t0) * 1e3;
             }),
             "ms");
  layer->Set("graph.settled.epslink", static_cast<double>(settled), "count");
  std::map<QueryKind, KindCost> costs = MeasureInlineKinds(
      world, view, *frozen, clusters, mix, seed, per_kind);
  for (const auto& [kind, c] : costs) {
    const std::string k = KindMetricName(kind);
    layer->Set("graph.exec_us." + k, c.exec_us_p50, "us");
    layer->Set("graph.settled." + k, c.settled, "count");
    layer->Set("graph.heap_pops." + k, c.heap_pops, "count");
  }
  return costs;
}

void AddServerLayer(const netclus::ServerStats& s0,
                    const netclus::ServerStats& s1,
                    const std::vector<double>& waits,
                    const std::vector<double>& start_s, Metrics* layer) {
  layer->Set("server.start_s", Quantile(start_s, 0.5), "s");
  layer->Set("server.queue_wait_p50_ms", Quantile(waits, 0.5), "ms");
  layer->Set("server.queue_wait_p99_ms", Quantile(waits, 0.99), "ms");
  const double batches = static_cast<double>(s1.batches - s0.batches);
  if (batches > 0) {
    layer->Set("server.batch_size_mean",
               static_cast<double>(s1.completed - s0.completed) / batches,
               "count");
    // mean_batch_ms is a since-Start mean; undo it into totals.
    layer->Set("server.batch_ms_mean",
               (s1.mean_batch_ms * static_cast<double>(s1.batches) -
                s0.mean_batch_ms * static_cast<double>(s0.batches)) /
                   batches,
               "ms");
  }
  const double done = static_cast<double>(s1.completed - s0.completed);
  if (done > 0) {
    layer->Set("server.deadline_miss_share",
               static_cast<double>(
                   (s1.deadline_expired - s0.deadline_expired) +
                   (s1.cancelled_traversals - s0.cancelled_traversals)) /
                   done,
               "ratio");
  }
}

double MixExecuteUs(const MixSpec& mix,
                    const std::map<QueryKind, KindCost>& costs) {
  auto us = [&](QueryKind k) {
    auto it = costs.find(k);
    return it == costs.end() ? 0.0 : it->second.exec_us_p50;
  };
  const double membership =
      1.0 - mix.distance_share - mix.range_share - mix.nearest_share;
  return mix.distance_share * us(QueryKind::kPointDistance) +
         mix.range_share * us(QueryKind::kRange) +
         mix.nearest_share * us(QueryKind::kNearestObject) +
         membership * us(QueryKind::kClusterMembership);
}

void ProbeCodec(
    const std::vector<std::pair<netclus::QueryRequest,
                                netclus::QueryResponse>>& sample,
    RunOutput* out) {
  if (sample.empty()) return;
  std::vector<std::string> queries, responses;
  queries.reserve(sample.size());
  responses.reserve(sample.size());
  double t0 = Now();
  {
    Span span("net.Encode");
    for (const auto& [req, resp] : sample) {
      queries.push_back(netclus::EncodeQueryFrame(req));
      responses.push_back(netclus::EncodeResponseFrame(resp));
    }
  }
  const double encode_s = Now() - t0;
  uint64_t bad = 0;
  t0 = Now();
  {
    Span span("net.Decode");
    for (size_t i = 0; i < sample.size(); ++i) {
      netclus::FrameReader reader;
      reader.Append(queries[i].data(), queries[i].size());
      reader.Append(responses[i].data(), responses[i].size());
      netclus::WireFrame qf, rf;
      bool got_q = false, got_r = false;
      netclus::QueryRequest req;
      netclus::QueryResponse resp;
      if (!reader.Next(&qf, &got_q).ok() || !reader.Next(&rf, &got_r).ok() ||
          !got_q || !got_r ||
          !netclus::DecodeQueryPayload(qf.payload.data(), qf.payload.size(),
                                       &req)
               .ok() ||
          !netclus::DecodeResponsePayload(rf.payload.data(), rf.payload.size(),
                                          &resp)
               .ok()) {
        ++bad;
        continue;
      }
      const netclus::QueryRequest& want = sample[i].first;
      if (req.kind != want.kind || req.a != want.a || req.b != want.b ||
          req.k != want.k || req.eps != want.eps ||
          !netclus::ResponsePayloadsEqual(resp, sample[i].second)) {
        ++bad;
      }
    }
  }
  const double decode_s = Now() - t0;
  if (bad > 0) {
    out->Fail(std::to_string(bad) + " wire frames did not round-trip");
  }
  const double n = static_cast<double>(sample.size());
  out->layer.Set("net.encode_us", encode_s * 1e6 / n, "us");
  out->layer.Set("net.decode_us", decode_s * 1e6 / n, "us");
}

void AddLoadDetails(const std::string& prefix, const LoadResult& r,
                    Metrics* detail) {
  // A failed, refused or deadline-missed request misses every latency
  // limit: it enters the quantiles as the largest representable latency.
  std::vector<double> lat = r.latency_ms;
  lat.insert(lat.end(), r.failed(), std::numeric_limits<double>::max());
  detail->Set(prefix + "_p50_ms", Quantile(lat, 0.5), "ms");
  detail->Set(prefix + "_p90_ms", Quantile(lat, 0.9), "ms");
  detail->Set(prefix + "_p95_ms", Quantile(lat, 0.95), "ms");
  detail->Set(prefix + "_p99_ms", Quantile(lat, 0.99), "ms");
  detail->Set(prefix + "_samples", static_cast<double>(lat.size()), "count");
  detail->Set(prefix + "_refused", static_cast<double>(r.refused), "count");
  detail->Set(prefix + "_deadline_missed",
              static_cast<double>(r.deadline_missed), "count");
  detail->Set(prefix + "_failed", static_cast<double>(r.errors), "count");
  if (!r.lateness_ms.empty()) {
    detail->Set(prefix + "_lateness_p99_ms", Quantile(r.lateness_ms, 0.99),
                "ms");
    detail->Set(prefix + "_lateness_max_ms", Quantile(r.lateness_ms, 1.0),
                "ms");
    detail->Set(prefix + "_backlog_end", static_cast<double>(r.backlog_end),
                "count");
  }
}

void CheckReplay(
    const ServeWorld& world, const std::string& what,
    const std::vector<std::pair<netclus::QueryRequest,
                                netclus::QueryResponse>>& sample,
    RunOutput* out) {
  netclus::InMemoryNetworkView view(world.gen.net, world.points);
  netclus::Result<netclus::ClusterOutput> clusters =
      netclus::RunClustering(view, world.spec);
  DieIf(clusters.status(), "replay clustering");
  std::string first;
  const uint64_t bad =
      CountReplayMismatches(view, clusters.value(), sample, &first);
  if (bad > 0) {
    out->Fail(what + ": " + std::to_string(bad) + " of " +
              std::to_string(sample.size()) + " replayed answers differ (" +
              first + ")");
  }
  out->detail.Set("replayed",
                  out->detail.Get("replayed") +
                      static_cast<double>(sample.size()),
                  "count");
}

namespace {

RunOutput RunWorkload(const std::string& name, const RunContext& ctx) {
  if (name == "serve-read") return RunServeRead(ctx);
  if (name == "serve-write") return RunServeWrite(ctx);
  if (name == "remote") return RunRemote(ctx);
  if (name == "cluster-batch") return RunClusterBatch(ctx);
  Die("unknown workload '" + name + "'");
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: netclus_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--setup-reps R] "
               "[--set key=value]...\n");
  std::exit(2);
}

std::string ProblemsJson(const RunOutput& r) {
  std::string s = "[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(r.problems[i]);
  }
  return s + "]";
}

std::string SpansJson(const std::vector<SpanSummary>& spans) {
  std::string s = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) s += ", ";
    s += "{\"name\": " + JsonString(spans[i].name) +
         ", \"count\": " + std::to_string(spans[i].count) +
         ", \"total_ms\": " + JsonNumber(spans[i].total_ms) +
         ", \"self_ms\": " + JsonNumber(spans[i].self_ms) +
         ", \"p50_ms\": " + JsonNumber(spans[i].p50_ms) + "}";
  }
  return s + "]";
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  RunContext ctx;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      trace = val == "1" ? 1 : (val == "0" ? 0 : -1);
    } else if (arg == "--work-dir") {
      ctx.work_dir = val;
    } else if (arg == "--setup-reps") {
      ctx.setup_reps = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--set") {
      const size_t eq = val.find('=');
      if (eq == std::string::npos) Usage();
      ctx.params.Set(val.substr(0, eq), val.substr(eq + 1));
    } else {
      Usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || trace < 0 ||
      ctx.work_dir.empty() || !(ctx.seconds > 0) || ctx.setup_reps == 0) {
    Usage();
  }

  RunOutput result;
  Metrics metrics;
  std::string spans_json = "[]";
  if (trace == 0) {
    result = RunWorkload(workload, ctx);
    metrics = result.e2e;
  } else {
    RunContext half = ctx;
    half.seconds = ctx.seconds / 2;
    half.setup_reps = 1;
    RunOutput plain = RunWorkload(workload, half);
    half.traced = true;
    Tracer::SetEnabled(true);
    result = RunWorkload(workload, half);
    Tracer::SetEnabled(false);
    metrics = result.layer;
    const double base = plain.e2e.Get("cpu_per_op_ms");
    metrics.Set("trace.overhead_pct",
                base > 0 ? (result.e2e.Get("cpu_per_op_ms") / base - 1.0) * 100
                         : 0.0,
                "%");
    for (const std::string& p : plain.problems) result.Fail("untraced: " + p);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    spans_json = SpansJson(Tracer::Summarize());
    const std::string path = ctx.work_dir + "/trace-" + workload + "-" +
                             std::to_string(ctx.seed) + ".jsonl";
    if (!Tracer::WriteJsonl(path, 50000)) Die("cannot write " + path);
    // Untraced figures of the first half, for the overhead row.
    for (const Metric& m : plain.e2e.items()) {
      result.detail.Set("untraced." + m.name, m.value, m.unit);
    }
    for (const Metric& m : result.e2e.items()) {
      result.detail.Set("traced." + m.name, m.value, m.unit);
    }
  }

  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "perfbench: CORRECTNESS: %s\n", p.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"detail\": %s, \"problems\": %s, \"spans\": %s, "
      "\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"setup_reps\": %llu, \"nproc\": %u, "
      "\"compiler\": %s, \"build_type\": %s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.Json().c_str(),
      result.detail.Json().c_str(), ProblemsJson(result).c_str(),
      spans_json.c_str(), JsonString(workload).c_str(),
      static_cast<unsigned long long>(ctx.seed),
      JsonNumber(ctx.seconds).c_str(), trace,
      static_cast<unsigned long long>(ctx.setup_reps),
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
