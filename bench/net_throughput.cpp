// Transport tax: one mixed query mix served twice from one QueryServer
// — first in-process (closed-loop Execute calls), then over loopback
// TCP through the binary wire protocol (net/) with concurrent blocking
// clients, each leg with its own freshly drawn requests so neither
// reads distances the other cached — so BENCH_net.json tracks per PR
// what the socket front end costs: loopback qps next to in-process
// qps, the p99 round-trip latency a remote caller actually sees, and
// their ratio.
// No perf gate (the tax depends on the host's loopback stack); the run
// fails only on correctness problems — a failed query, a corrupt
// frame, or a refused connection.
// Wired into `run_all.sh net-smoke`.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "server/query_server.h"

using namespace netclus;
using namespace netclus::bench;

namespace {

constexpr int kRequests = 1200;
constexpr int kClients = 4;

std::vector<QueryRequest> MakeWorkload(PointId n_points, double eps,
                                       uint64_t seed) {
  std::vector<QueryRequest> reqs;
  reqs.reserve(kRequests);
  Rng rng(seed);
  for (int i = 0; i < kRequests; ++i) {
    PointId a = static_cast<PointId>(rng.NextBounded(n_points));
    PointId b = static_cast<PointId>(rng.NextBounded(n_points));
    switch (i % 3) {
      case 0:
        reqs.push_back(QueryRequest::PointDistance(a, b));
        break;
      case 1:
        reqs.push_back(QueryRequest::Range(a, eps));
        break;
      default:
        reqs.push_back(QueryRequest::NearestObject(a, 2));
        break;
    }
  }
  return reqs;
}

[[noreturn]] void Die(const char* what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  GeneratedNetwork gen = GenerateRoadNetwork({1500, 1.3, 0.3, 177});
  PointSet points =
      std::move(GenerateUniformPoints(gen.net, 800, 178)).value();
  InMemoryNetworkView view(gen.net, points);
  std::printf("net-throughput: %u nodes, %zu edges, %u points, %d clients\n",
              gen.net.num_nodes(), gen.net.num_edges(), points.size(),
              kClients);

  const double eps = SampledEps(view);

  QueryServerOptions opts;
  opts.num_workers = 4;
  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(gen.net, points, opts);
  if (!started.ok()) Die("server start", started.status());
  QueryServer& server = *started.value();

  // Per-client slices, same shape for both paths so the comparison is
  // apples to apples, but drawn from disjoint seeds: the loopback leg
  // must not replay pairs whose distances the in-process leg already
  // left in the server's distance cache.
  std::vector<std::vector<QueryRequest>> slices;
  std::vector<std::vector<QueryRequest>> net_slices;
  slices.reserve(kClients);
  net_slices.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    slices.push_back(MakeWorkload(points.size(), eps, 31 + c));
    net_slices.push_back(
        MakeWorkload(points.size(), eps, 31 + kClients + c));
  }

  // --- in-process baseline: kClients threads of blocking Execute ------
  double inproc_seconds;
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    WallTimer timer;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (const QueryRequest& req : slices[c]) {
          Result<QueryResponse> r = server.Execute(req);
          if (!r.ok()) Die("in-process query", r.status());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    inproc_seconds = timer.ElapsedSeconds();
  }
  const double total_requests = static_cast<double>(kRequests) * kClients;
  const double inproc_qps = total_requests / inproc_seconds;

  // --- loopback: same threads, each through its own QueryClient -------
  Result<std::unique_ptr<TcpServer>> front =
      TcpServer::Start(&server, TcpServerOptions{});
  if (!front.ok()) Die("tcp start", front.status());
  TcpServer& tcp = *front.value();

  std::vector<std::vector<double>> rtts(kClients);
  double net_seconds;
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    WallTimer timer;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientOptions copts;
        copts.port = tcp.port();
        Result<std::unique_ptr<QueryClient>> connected =
            QueryClient::Connect(copts);
        if (!connected.ok()) Die("client connect", connected.status());
        rtts[c].reserve(net_slices[c].size());
        WallTimer rtt;
        for (const QueryRequest& req : net_slices[c]) {
          const double t0 = rtt.ElapsedSeconds();
          Result<QueryResponse> r = connected.value()->Execute(req);
          if (!r.ok()) Die("loopback query", r.status());
          rtts[c].push_back((rtt.ElapsedSeconds() - t0) * 1e3);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    net_seconds = timer.ElapsedSeconds();
  }
  const double net_qps = total_requests / net_seconds;
  std::vector<double> all_rtts;
  all_rtts.reserve(static_cast<size_t>(total_requests));
  for (const std::vector<double>& v : rtts) {
    all_rtts.insert(all_rtts.end(), v.begin(), v.end());
  }
  const double p99_rtt_ms = Percentile(std::move(all_rtts), 0.99);
  const double transport_tax = net_qps > 0.0 ? inproc_qps / net_qps : 0.0;

  const TcpServerStats net_stats = tcp.stats();
  if (net_stats.corrupt_frames != 0 || net_stats.connections_refused != 0) {
    std::fprintf(stderr, "FAIL: %llu corrupt frames, %llu refused\n",
                 static_cast<unsigned long long>(net_stats.corrupt_frames),
                 static_cast<unsigned long long>(
                     net_stats.connections_refused));
    return 1;
  }

  PrintRow({"path", "qps", "p99_rtt_ms"}, 16);
  PrintRow({"in-process", Fmt(inproc_qps, 0), "-"}, 16);
  PrintRow({"loopback", Fmt(net_qps, 0), Fmt(p99_rtt_ms, 3)}, 16);
  std::printf("transport tax: %.2fx (in-process / loopback)\n",
              transport_tax);

  BenchRecorder rec("net");
  rec.Add("loopback_roundtrip",
          {net_seconds}, TraversalCounters{},
          {{"inproc_qps", inproc_qps},
           {"net_qps", net_qps},
           {"p99_rtt_ms", p99_rtt_ms},
           {"transport_tax", transport_tax},
           {"clients", static_cast<double>(kClients)},
           {"requests", total_requests}});
  // Per-PR history: appends a {sha, date, entries} row instead of
  // overwriting, so latency drift across revisions stays visible.
  std::string path = rec.WriteAppend();
  std::printf("wrote %s\n", path.empty() ? "(json write FAILED)"
                                         : path.c_str());
  return path.empty() ? 1 : 0;
}
