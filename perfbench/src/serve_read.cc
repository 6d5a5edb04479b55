// serve-read: an in-process QueryServer answering a read mix over the
// generated world. Phase 1 offers a fixed open-loop rate (latency from
// each request's scheduled send); phase 2 saturates the server with a
// fixed in-flight window (throughput and CPU cost per read). No publish,
// no WAL, no socket.
#include <memory>
#include <utility>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

using netclus::QueryServer;
using netclus::QueryServerOptions;
using netclus::ServerStats;

QueryServerOptions ServeOptions(const Params& p, const ServeWorld& world) {
  QueryServerOptions o;
  o.num_workers = static_cast<uint32_t>(p.Int("server.workers"));
  o.max_queue_depth = p.Int("server.queue_depth");
  o.max_batch_size = p.Int("server.max_batch");
  o.cluster_spec = world.spec;
  return o;
}

std::unique_ptr<QueryServer> StartServer(const ServeWorld& world,
                                         const QueryServerOptions& opts) {
  Span span("server.Start");
  netclus::Result<std::unique_ptr<QueryServer>> s =
      QueryServer::Start(world.gen.net, world.points, opts);
  DieIf(s.status(), "QueryServer::Start");
  return std::move(s.value());
}

RunOutput RunServeRead(const RunContext& ctx) {
  const Params& p = ctx.params;
  RunOutput out;
  const MixSpec mix = ReadMix(p, "mix");

  // Set-up, repeated: world generation, server start with its boot
  // ε-Link clustering, and a cache warm-up from a separate stream.
  const size_t window = p.Int("closed.window");
  std::vector<double> setup_s, start_s;
  ServeWorld world;
  std::unique_ptr<QueryServer> server;
  for (uint64_t rep = 0; rep < ctx.setup_reps; ++rep) {
    server.reset();
    const double t0 = Now();
    world = MakeServeWorld(p, ctx.seed);
    const double ts = Now();
    server = StartServer(world, ServeOptions(p, world));
    start_s.push_back(Now() - ts);
    RequestStream warm(world, mix, netclus::Rng::DeriveSeed(ctx.seed, 7));
    LoadResult w = RunWindow(server.get(), &warm, window, 1e9,
                             p.Int("warmup.requests"), 0);
    if (w.failed() > 0) out.Fail("warm-up failed: " + w.first_error);
    setup_s.push_back(Now() - t0);
  }
  Tracer::Clear();  // set-up spans are not part of the measured phases

  const double open_seconds = ctx.seconds * p.Num("open.share");
  const size_t sample_every = p.Int("replay.every");
  RequestStream open_stream(world, mix, netclus::Rng::DeriveSeed(ctx.seed, 8));
  const ServerStats s0 = server->stats();
  LoadResult open = RunOpenLoop(server.get(), &open_stream, p.Num("open.rate"),
                                open_seconds, sample_every);
  const ServerStats s1 = server->stats();
  const std::vector<double> waits = server->QueueWaitSamplesMs();

  RequestStream closed_stream(world, mix,
                              netclus::Rng::DeriveSeed(ctx.seed, 9));
  const double cpu0 = ProcessCpuSeconds();
  LoadResult closed = RunWindow(server.get(), &closed_stream, window,
                                ctx.seconds - open_seconds, 0, sample_every);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const ServerStats s2 = server->stats();
  server->Stop();

  out.attempted = open.attempted + closed.attempted;
  out.failed = open.failed() + closed.failed();
  if (s2.replay_mismatches != 0) out.Fail("server replay mismatches");
  CheckReplay(world, "serve-read", open.sample, &out);
  CheckReplay(world, "serve-read", closed.sample, &out);

  out.e2e.Set("setup_s", Quantile(setup_s, 0.5), "s");
  out.e2e.Set("cpu_per_op_ms", cpu_s * 1e3 / static_cast<double>(closed.ok),
              "ms");
  AddLoadDetails("read", open, &out.detail);
  AddLoadDetails("saturated_read", closed, &out.detail);
  out.detail.Set("read_qps", static_cast<double>(closed.ok) / closed.elapsed_s,
                 "1/s");
  out.detail.Set("offered_rate", p.Num("open.rate"), "1/s");
  out.detail.Set("saturation_samples", static_cast<double>(closed.ok),
                 "count");

  if (ctx.traced) {
    ZeroLayerMetrics(&out.layer);
    // Queue waits and batch figures cover the open-loop phase, whose
    // latency they explain; deadline misses cover both phases.
    AddServerLayer(s0, s1, waits, start_s, &out.layer);
    const double done = static_cast<double>(s2.completed - s0.completed);
    if (done > 0) {
      out.layer.Set("server.deadline_miss_share",
                    static_cast<double>(
                        (s2.deadline_expired - s0.deadline_expired) +
                        (s2.cancelled_traversals - s0.cancelled_traversals)) /
                        done,
                    "ratio");
    }
    std::map<netclus::QueryKind, KindCost> costs = ProbeGraphLayer(
        world, mix, ctx.seed, p.Int("probe.per_kind"), &out.layer);
    const double served_p50_us = Quantile(open.latency_ms, 0.5) * 1e3;
    if (served_p50_us > 0) {
      out.layer.Set("server.execute_share",
                    MixExecuteUs(mix, costs) / served_p50_us, "ratio");
    }
    ProbeCodec(open.sample, &out);
  }
  return out;
}

}  // namespace perfbench
