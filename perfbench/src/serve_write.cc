// serve-write: the serve-read world behind a durable WAL with periodic
// checkpoints. One writer applies mutations one at a time (ApplyUpdate,
// then Flush until visible); most are AddPoint, every k-th is AddEdge,
// and every epoch re-clusters with ε-Link. Reads run beside the writer
// at a fixed open-loop rate.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "server/update.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using netclus::NetworkUpdate;
using netclus::NodeId;
using netclus::QueryServer;
using netclus::QueryServerOptions;
using netclus::Rng;
using netclus::ServerStats;

namespace {

// Deterministic mutation sequence valid against the evolving world:
// AddPoint on an edge of the boot network, AddEdge between two nodes
// not yet joined, weighted 1.5x their straight-line distance.
class MutationStream {
 public:
  MutationStream(const ServeWorld& world, uint64_t edge_every, uint64_t seed)
      : world_(world),
        local_(world.gen.net),
        edges_(world.gen.net.Edges()),
        edge_every_(edge_every),
        rng_(Rng::DeriveSeed(seed, 21)) {}

  NetworkUpdate Next() {
    ++count_;
    if (edge_every_ > 0 && count_ % edge_every_ == 0) {
      const NodeId n = local_.num_nodes();
      for (;;) {
        NodeId u = static_cast<NodeId>(rng_.NextBounded(n));
        NodeId v = static_cast<NodeId>(rng_.NextBounded(n));
        if (u == v || local_.HasEdge(u, v)) continue;
        const auto& [ux, uy] = world_.gen.coords[u];
        const auto& [vx, vy] = world_.gen.coords[v];
        double w = 1.5 * std::hypot(ux - vx, uy - vy);
        if (!(w > 0.0)) continue;
        DieIf(local_.AddEdge(u, v, w), "local AddEdge");
        return NetworkUpdate::AddEdge(u, v, w);
      }
    }
    const netclus::Edge& e = edges_[rng_.NextBounded(edges_.size())];
    return NetworkUpdate::AddPoint(e.u, e.v,
                                   rng_.NextDouble() * e.weight);
  }

 private:
  const ServeWorld& world_;
  netclus::Network local_;
  std::vector<netclus::Edge> edges_;
  uint64_t edge_every_;
  Rng rng_;
  uint64_t count_ = 0;
};

struct WriterResult {
  std::vector<double> visible_ms;  ///< ApplyUpdate call -> Flush return
  std::vector<double> apply_ms;
  std::vector<double> flush_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t add_edges = 0;
  uint64_t invisible = 0;  ///< AddPoints not answerable after Flush
  uint64_t retired_max = 0;
  std::string first_error;
};

// Applies mutations one at a time until `seconds` pass (or `max_writes`
// when non-zero). After each AddPoint's Flush, the new point's
// ObjectId — the next value of the server's watermark — must answer a
// membership query.
void RunWriter(QueryServer* server, MutationStream* stream,
               uint64_t* next_object_id, double seconds, uint64_t max_writes,
               WriterResult* out) {
  const double t0 = Now();
  while (Now() - t0 < seconds &&
         (max_writes == 0 || out->attempted < max_writes)) {
    NetworkUpdate u = stream->Next();
    ++out->attempted;
    const uint64_t request = Tracer::enabled() ? Tracer::NewId() : 0;
    const double a0 = Now();
    netclus::Status applied;
    {
      Span span("server.ApplyUpdate", request);
      applied = server->ApplyUpdate(u);
    }
    const double a1 = Now();
    netclus::Status flushed;
    {
      Span span("server.Flush", request);
      flushed = server->Flush();
    }
    const double a2 = Now();
    if (!applied.ok() || !flushed.ok()) {
      ++out->failed;
      if (applied.ok()) ++*next_object_id;
      if (out->first_error.empty()) {
        out->first_error = (!applied.ok() ? applied : flushed).ToString();
      }
      continue;
    }
    const uint64_t id = (*next_object_id)++;
    out->apply_ms.push_back((a1 - a0) * 1e3);
    out->flush_ms.push_back((a2 - a1) * 1e3);
    out->visible_ms.push_back((a2 - a0) * 1e3);
    if (u.kind == NetworkUpdate::Kind::kAddEdge) {
      ++out->add_edges;
    } else {
      netclus::Result<netclus::QueryResponse> r =
          server->Execute(netclus::QueryRequest::ClusterMembership(id));
      if (!r.ok()) ++out->invisible;
    }
    const ServerStats st = server->stats();
    out->retired_max = std::max<uint64_t>(out->retired_max, st.retired_epochs);
  }
}

}  // namespace

RunOutput RunServeWrite(const RunContext& ctx) {
  const Params& p = ctx.params;
  RunOutput out;
  const MixSpec mix = ReadMix(p, "mix");
  const uint64_t edge_every = p.Int("write.edge_every");

  std::vector<double> setup_s, start_s;
  ServeWorld world;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<MutationStream> mutations;
  std::filesystem::path dir;
  uint64_t next_object_id = 0;
  for (uint64_t rep = 0; rep < ctx.setup_reps; ++rep) {
    server.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    const double t0 = Now();
    world = MakeServeWorld(p, ctx.seed);
    dir = std::filesystem::path(ctx.work_dir) /
          ("wal-" + std::to_string(ctx.seed) + "-" + std::to_string(rep));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    QueryServerOptions opts = ServeOptions(p, world);
    opts.wal_path = (dir / "mutations.wal").string();
    opts.wal_checkpoint_every = p.Int("write.checkpoint_every");
    const double ts = Now();
    server = StartServer(world, opts);
    start_s.push_back(Now() - ts);
    // The boot epoch numbers points first, then edges; every accepted
    // mutation takes the next id.
    next_object_id = world.points.size() + world.gen.net.num_edges();
    mutations = std::make_unique<MutationStream>(world, edge_every, ctx.seed);
    WriterResult warm;
    RunWriter(server.get(), mutations.get(), &next_object_id, 1e9,
              p.Int("warmup.writes"), &warm);
    if (warm.failed > 0) out.Fail("warm-up write failed: " + warm.first_error);
    setup_s.push_back(Now() - t0);
  }
  Tracer::Clear();

  const ServerStats s0 = server->stats();
  const double cpu0 = ProcessCpuSeconds();
  WriterResult writes;
  std::thread writer([&] {
    RunWriter(server.get(), mutations.get(), &next_object_id, ctx.seconds, 0,
              &writes);
  });
  RequestStream read_stream(world, mix, Rng::DeriveSeed(ctx.seed, 8));
  LoadResult reads = RunOpenLoop(server.get(), &read_stream,
                                 p.Num("read.rate"), ctx.seconds, 0);
  writer.join();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const std::vector<double> waits = server->QueueWaitSamplesMs();
  const ServerStats s1 = server->stats();
  server->Stop();
  server.reset();
  std::filesystem::remove_all(dir);

  out.attempted = writes.attempted + reads.attempted;
  out.failed = writes.failed + reads.failed();
  if (writes.invisible > 0) {
    out.Fail(std::to_string(writes.invisible) +
             " added points not visible after Flush");
  }
  if (s1.publish_failures != s0.publish_failures) {
    out.Fail("publish failures during the run");
  }
  if (s1.wal_records - s0.wal_records < writes.visible_ms.size()) {
    out.Fail("WAL holds fewer records than applied mutations");
  }

  const double visible = static_cast<double>(writes.visible_ms.size());
  out.e2e.Set("setup_s", Quantile(setup_s, 0.5), "s");
  out.e2e.Set("cpu_per_op_ms", cpu_s * 1e3 / visible, "ms");

  out.detail.Set("write_visible_p50_ms", Quantile(writes.visible_ms, 0.5),
                 "ms");
  out.detail.Set("write_visible_p90_ms", Quantile(writes.visible_ms, 0.9),
                 "ms");
  out.detail.Set("write_visible_p99_ms", Quantile(writes.visible_ms, 0.99),
                 "ms");
  out.detail.Set("writes_per_s", visible / ctx.seconds, "1/s");
  out.detail.Set("writes", visible, "count");
  out.detail.Set("add_edges", static_cast<double>(writes.add_edges), "count");
  AddLoadDetails("mixed_read", reads, &out.detail);
  out.detail.Set("read_rate", p.Num("read.rate"), "1/s");

  if (ctx.traced) {
    ZeroLayerMetrics(&out.layer);
    AddServerLayer(s0, s1, waits, start_s, &out.layer);
    out.layer.Set("server.apply_ms", Quantile(writes.apply_ms, 0.5), "ms");
    out.layer.Set("server.publish_wait_ms", Quantile(writes.flush_ms, 0.5),
                  "ms");
    out.layer.Set("server.publish_full_ms", s1.mean_publish_full_ms, "ms");
    out.layer.Set("server.publish_incremental_ms",
                  s1.mean_publish_incremental_ms, "ms");
    out.layer.Set("server.wal_records",
                  static_cast<double>(s1.wal_records - s0.wal_records),
                  "count");
    out.layer.Set("server.checkpoints",
                  static_cast<double>(s1.checkpoints_written -
                                      s0.checkpoints_written),
                  "count");
    out.layer.Set("server.retired_epochs_max",
                  static_cast<double>(writes.retired_max), "count");
    std::map<netclus::QueryKind, KindCost> costs = ProbeGraphLayer(
        world, mix, ctx.seed, p.Int("probe.per_kind"), &out.layer);
    const double served_p50_us = Quantile(reads.latency_ms, 0.5) * 1e3;
    if (served_p50_us > 0) {
      out.layer.Set("server.execute_share",
                    MixExecuteUs(mix, costs) / served_p50_us, "ratio");
    }
  }
  return out;
}

}  // namespace perfbench
