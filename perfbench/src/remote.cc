// remote: closed loop over loopback TCP. A few blocking QueryClient
// connections, one thread each, send only cheap queries (membership and
// nearest-1) to a TcpServer in front of the serving world, so the wire
// codec, the sockets and the per-connection reader threads dominate.
#include <memory>
#include <thread>
#include <utility>

#include "net/client.h"
#include "net/tcp_server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using netclus::ClientOptions;
using netclus::QueryClient;
using netclus::QueryRequest;
using netclus::QueryServer;
using netclus::TcpServer;

namespace {

/// Closed loop: `callers` threads each send their next request as soon
/// as the previous answer is back, for `seconds` (or until each sent
/// `max_requests` when that is non-zero). `make_call(c)` gives caller c
/// its call, `(const QueryRequest&, uint64_t request_id) ->
/// Result<QueryResponse>`; caller c draws its requests from a stream
/// seeded with Rng::DeriveSeed(seed, stream_base + c). Each latency is
/// the call's duration; every `sample_every`-th answer of each caller
/// is kept for replay.
template <typename MakeCall>
LoadResult RunCallers(uint64_t callers, MakeCall&& make_call,
                      const ServeWorld& world, const MixSpec& mix,
                      uint64_t seed, uint64_t stream_base, double seconds,
                      uint64_t max_requests, size_t sample_every) {
  std::vector<LoadResult> per(callers);
  std::vector<std::thread> threads;
  const double t0 = Now();
  for (uint64_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      auto call = make_call(c);
      RequestStream stream(world, mix,
                           netclus::Rng::DeriveSeed(seed, stream_base + c));
      LoadResult& out = per[c];
      const double start = Now();
      while (Now() - start < seconds &&
             (max_requests == 0 || out.attempted < max_requests)) {
        const netclus::QueryRequest req = stream.Next();
        const uint64_t request = Tracer::enabled() ? Tracer::NewId() : 0;
        const double s = Now();
        netclus::Result<netclus::QueryResponse> r = call(req, request);
        const double e = Now();
        ++out.attempted;
        if (!r.ok()) {
          CountFailure(r.status(), &out);
          continue;
        }
        ++out.ok;
        out.latency_ms.push_back((e - s) * 1e3);
        if (sample_every > 0 && out.attempted % sample_every == 0) {
          out.sample.emplace_back(req, std::move(r.value()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult all;
  all.elapsed_s = Now() - t0;
  for (LoadResult& r : per) {
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    all.attempted += r.attempted;
    all.ok += r.ok;
    all.refused += r.refused;
    all.deadline_missed += r.deadline_missed;
    all.errors += r.errors;
    if (all.first_error.empty()) all.first_error = r.first_error;
    for (auto& s : r.sample) all.sample.push_back(std::move(s));
  }
  return all;
}

}  // namespace

RunOutput RunRemote(const RunContext& ctx) {
  const Params& p = ctx.params;
  RunOutput out;
  const MixSpec mix = ReadMix(p, "mix");
  const uint64_t clients = p.Int("remote.clients");

  std::vector<double> setup_s, start_s;
  ServeWorld world;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<TcpServer> tcp;
  std::vector<std::unique_ptr<QueryClient>> conns;
  for (uint64_t rep = 0; rep < ctx.setup_reps; ++rep) {
    conns.clear();
    tcp.reset();
    server.reset();
    const double t0 = Now();
    world = MakeServeWorld(p, ctx.seed);
    const double ts = Now();
    server = StartServer(world, ServeOptions(p, world));
    start_s.push_back(Now() - ts);
    {
      Span span("net.TcpServer.Start");
      netclus::Result<std::unique_ptr<TcpServer>> t =
          TcpServer::Start(server.get(), netclus::TcpServerOptions{});
      DieIf(t.status(), "TcpServer::Start");
      tcp = std::move(t.value());
    }
    for (uint64_t c = 0; c < clients; ++c) {
      ClientOptions co;
      co.port = tcp->port();
      netclus::Result<std::unique_ptr<QueryClient>> cl =
          QueryClient::Connect(co);
      DieIf(cl.status(), "QueryClient::Connect");
      conns.push_back(std::move(cl.value()));
    }
    LoadResult warm = RunCallers(
        clients,
        [&](uint64_t c) {
          return [&, c](const QueryRequest& r, uint64_t) {
            return conns[c]->Execute(r);
          };
        },
        world, mix, ctx.seed, 80, 1e9, p.Int("warmup.requests"), 0);
    if (warm.failed() > 0) out.Fail("warm-up failed: " + warm.first_error);
    setup_s.push_back(Now() - t0);
  }
  Tracer::Clear();

  const netclus::TcpServerStats n0 = tcp->stats();
  const netclus::ServerStats s0 = server->stats();
  const double cpu0 = ProcessCpuSeconds();
  LoadResult remote = RunCallers(
      clients,
      [&](uint64_t c) {
        return [&, c](const QueryRequest& r, uint64_t request) {
          Span span("net.QueryClient.Execute", request);
          return conns[c]->Execute(r);
        };
      },
      world, mix, ctx.seed, 40, ctx.seconds, 0, p.Int("replay.every"));
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const netclus::TcpServerStats n1 = tcp->stats();
  const netclus::ServerStats s1 = server->stats();
  const std::vector<double> waits = server->QueueWaitSamplesMs();

  out.attempted = remote.attempted;
  out.failed = remote.failed();
  if (n1.corrupt_frames != n0.corrupt_frames ||
      n1.protocol_errors != n0.protocol_errors) {
    out.Fail("corrupt frames or protocol errors on the wire");
  }
  CheckReplay(world, "remote", remote.sample, &out);

  // CPU covers both ends of the loopback: clients and server.
  out.e2e.Set("setup_s", Quantile(setup_s, 0.5), "s");
  out.e2e.Set("cpu_per_op_ms", cpu_s * 1e3 / static_cast<double>(remote.ok),
              "ms");
  out.detail.Set("remote_qps",
                 static_cast<double>(remote.ok) / remote.elapsed_s, "1/s");
  AddLoadDetails("remote_rtt", remote, &out.detail);
  out.detail.Set("clients", static_cast<double>(clients), "count");

  if (ctx.traced) {
    ZeroLayerMetrics(&out.layer);
    AddServerLayer(s0, s1, waits, start_s, &out.layer);
    const double queries = static_cast<double>(n1.queries - n0.queries);
    if (queries > 0) {
      out.layer.Set("net.bytes_per_query",
                    static_cast<double>((n1.bytes_read - n0.bytes_read) +
                                        (n1.bytes_written - n0.bytes_written)) /
                        queries,
                    "bytes");
    }
    uint64_t retries = 0, reconnects = 0;
    for (const auto& c : conns) {
      retries += c->stats().retries;
      reconnects += c->stats().reconnects;
    }
    out.layer.Set("net.client_retries", static_cast<double>(retries), "count");
    out.layer.Set("net.reconnects", static_cast<double>(reconnects), "count");

    // Transport: the same number of in-process callers on a fresh,
    // disjoint request sequence, so neither leg reads what the other
    // warmed.
    LoadResult inproc = RunCallers(
        clients,
        [&](uint64_t) {
          return [&](const QueryRequest& r, uint64_t request) {
            Span span("server.Execute", request);
            return server->Execute(r);
          };
        },
        world, mix, ctx.seed, 60, p.Num("transport.seconds"), 0, 0);
    if (inproc.failed() > 0) out.Fail("in-process leg: " + inproc.first_error);
    out.layer.Set("net.transport_us",
                  (Quantile(remote.latency_ms, 0.5) -
                   Quantile(inproc.latency_ms, 0.5)) *
                      1e3,
                  "us");
    ProbeCodec(remote.sample, &out);
    std::map<netclus::QueryKind, KindCost> costs = ProbeGraphLayer(
        world, mix, ctx.seed, p.Int("probe.per_kind"), &out.layer);
    const double served_p50_us = Quantile(inproc.latency_ms, 0.5) * 1e3;
    if (served_p50_us > 0) {
      out.layer.Set("server.execute_share",
                    MixExecuteUs(mix, costs) / served_p50_us, "ratio");
    }
  }
  conns.clear();
  tcp->Stop();
  server->Stop();
  return out;
}

}  // namespace perfbench
