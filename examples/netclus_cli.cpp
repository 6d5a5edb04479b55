// netclus_cli: drive the library from the command line on text network
// files (see graph/text_io.h for the format).
//
//   netclus_cli generate --nodes 2000 --points 6000 --clusters 8
//       --seed 7 --out town.net
//   netclus_cli suggest --in town.net
//   netclus_cli cluster --in town.net --algo epslink --eps auto
//   netclus_cli cluster --in town.net --algo kmedoids --k 8
//   netclus_cli cluster --in town.net --algo singlelink --cut 0.5
//   netclus_cli serve --in town.net --workers 4 --clients 4
//       --queries 2000 --mutations 16
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/parameter_selection.h"
#include "eval/evaluation.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/text_io.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "netclus.h"
#include "server/query_server.h"
#include "server/wal.h"
#include "storage/paged_file.h"

using namespace netclus;

namespace {

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: netclus_cli generate|suggest|cluster [flags]\n"
               "  generate --nodes N --points P --clusters K [--seed S] "
               "--out FILE\n"
               "  suggest  --in FILE\n"
               "  cluster  --in FILE --algo "
               "kmedoids|epslink|dbscan|singlelink\n"
               "           [--eps E|auto] [--k K] [--minpts M] [--minsup M]\n"
               "           [--delta D] [--cut D] [--seed S]\n"
               "           [--threads T] [--restarts R]\n"
               "  serve    --in FILE [--workers W] [--clients C]\n"
               "           [--queries N] [--mutations M] [--eps E|auto]\n"
               "           [--validate on|off] [--seed S]\n"
               "           [--wal FILE] [--wal-checkpoint-every N]\n"
               "           [--deadline-ms D]\n"
               "           [--port P] [--port-file F] [--serve-seconds S]\n"
               "           [--stop-file F]\n"
               "  wal      inspect --wal FILE\n"
               "  query    --in FILE --connect HOST:PORT [--queries N]\n"
               "           [--clients C] [--check on|off] [--eps E|auto]\n"
               "           [--seed S] [--deadline-ms D]\n");
  return 2;
}

// Offline diagnostics for a server's durability files: the mutation log
// (sequence base, record count, torn-tail scrub results) plus both
// checkpoint slots. Same page size and slot naming as the server, so it
// reads exactly what `serve --wal FILE` would recover from. Opening the
// log performs the same torn-tail scrub recovery would.
int RunWalInspect(int argc, char** argv) {
  constexpr uint32_t kWalPageSize = 4096;  // must match the server's
  const char* path = FlagValue(argc, argv, "--wal", nullptr);
  if (path == nullptr) return Usage();
  FILE* probe = std::fopen(path, "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "error: no WAL at %s\n", path);
    return 1;
  }
  std::fclose(probe);

  bool log_ok = true;
  Result<std::unique_ptr<PagedFile>> file =
      PagedFile::Open(path, kWalPageSize, /*truncate=*/false);
  if (!file.ok()) return Fail(file.status());
  Result<std::unique_ptr<MutationWal>> wal =
      MutationWal::Open(file.value().get());
  if (!wal.ok()) {
    log_ok = false;
    std::printf("wal %s: UNREADABLE (%s)\n", path,
                wal.status().ToString().c_str());
  } else {
    const MutationWal& log = *wal.value();
    std::printf("wal %s: %llu records, sequence [%llu, %llu)\n", path,
                static_cast<unsigned long long>(log.num_records()),
                static_cast<unsigned long long>(log.start_seq()),
                static_cast<unsigned long long>(log.next_seq()));
    if (log.recovery().records_dropped > 0) {
      std::printf("  torn tail: %llu record(s) scrubbed\n",
                  static_cast<unsigned long long>(
                      log.recovery().records_dropped));
    }
  }

  Result<std::unique_ptr<CheckpointStore>> store =
      CheckpointStore::Open(path, kWalPageSize);
  if (!store.ok()) return Fail(store.status());
  for (int slot = 0; slot < 2; ++slot) {
    const char name = slot == 0 ? 'a' : 'b';
    CheckpointSlotInfo info = store.value()->InspectSlot(slot);
    if (!info.present) {
      std::printf("checkpoint %s.ckpt.%c: empty\n", path, name);
    } else if (info.valid) {
      std::printf("checkpoint %s.ckpt.%c: generation %llu, covers seq %llu, "
                  "%llu edges, %llu points, %llu bytes\n",
                  path, name,
                  static_cast<unsigned long long>(info.generation),
                  static_cast<unsigned long long>(info.covers_seq),
                  static_cast<unsigned long long>(info.num_edges),
                  static_cast<unsigned long long>(info.num_points),
                  static_cast<unsigned long long>(info.total_bytes));
    } else {
      std::printf("checkpoint %s.ckpt.%c: INVALID (%s) — header claims "
                  "generation %llu, covers seq %llu\n",
                  path, name, info.detail.c_str(),
                  static_cast<unsigned long long>(info.generation),
                  static_cast<unsigned long long>(info.covers_seq));
    }
  }
  return log_ok ? 0 : 1;
}

int RunGenerate(int argc, char** argv) {
  NodeId nodes = static_cast<NodeId>(
      std::atol(FlagValue(argc, argv, "--nodes", "2000")));
  PointId points = static_cast<PointId>(
      std::atol(FlagValue(argc, argv, "--points", "6000")));
  uint32_t clusters = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--clusters", "8")));
  uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "7")));
  const char* out = FlagValue(argc, argv, "--out", nullptr);
  if (out == nullptr) return Usage();

  GeneratedNetwork g = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
  double total = 0.0;
  for (const Edge& e : g.net.Edges()) total += e.weight;
  ClusterWorkloadSpec spec;
  spec.total_points = points;
  spec.num_clusters = clusters;
  spec.outlier_fraction = 0.01;
  spec.s_init = 0.06 * total / (3.0 * 0.99 * points);
  spec.seed = seed + 1;
  Result<GeneratedWorkload> w = GenerateClusteredPoints(g.net, spec);
  if (!w.ok()) return Fail(w.status());
  Status s = SaveNetworkFile(out, g.net, &w.value().points);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %u nodes, %zu edges, %u points "
              "(suggested eps from generator: %.6f)\n",
              out, g.net.num_nodes(), g.net.num_edges(), points,
              w.value().max_intra_gap);
  return 0;
}

int RunSuggest(const InMemoryNetworkView& view) {
  Result<double> eps = SuggestEps(view, EpsSuggestionOptions{});
  if (eps.ok()) {
    std::printf("suggested eps:   %.6f\n", eps.value());
  } else {
    std::printf("suggested eps:   n/a (%s)\n", eps.status().ToString().c_str());
  }
  Result<double> delta = SuggestDelta(view, 0.7);
  if (delta.ok()) {
    std::printf("suggested delta: %.6f\n", delta.value());
  } else {
    std::printf("suggested delta: n/a (%s)\n",
                delta.status().ToString().c_str());
  }
  return 0;
}

// Builds a ClusterSpec from the command-line flags and runs it through
// the library's single entry point (RunClustering, via the evaluation
// module's scoring wrapper).
int RunCluster(int argc, char** argv, const InMemoryNetworkView& view,
               const PointSet& points) {
  Result<Algorithm> algo =
      ParseAlgorithm(FlagValue(argc, argv, "--algo", "epslink"));
  if (!algo.ok()) {
    std::fprintf(stderr, "%s\n", algo.status().ToString().c_str());
    return Usage();
  }
  double eps = 0.0;
  std::string eps_flag = FlagValue(argc, argv, "--eps", "auto");
  if (eps_flag == "auto") {
    Result<double> suggested = SuggestEps(view, EpsSuggestionOptions{});
    if (!suggested.ok()) return Fail(suggested.status());
    eps = suggested.value();
    std::printf("eps = %.6f (auto)\n", eps);
  } else {
    eps = std::atof(eps_flag.c_str());
  }
  uint32_t threads = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--threads", "1")));

  ClusterSpec spec;
  spec.algorithm = algo.value();
  spec.eps_link.eps = eps;
  spec.eps_link.min_sup = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--minsup", "2")));
  spec.dbscan.eps = eps;
  spec.dbscan.min_pts = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--minpts", "2")));
  spec.dbscan.num_threads = threads;
  spec.kmedoids.k =
      static_cast<uint32_t>(std::atol(FlagValue(argc, argv, "--k", "8")));
  spec.kmedoids.seed = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--seed", "42")));
  spec.kmedoids.num_restarts = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--restarts", "1")));
  spec.kmedoids.num_threads = threads;
  spec.single_link.delta = std::atof(FlagValue(argc, argv, "--delta", "0"));
  double cut = std::atof(FlagValue(argc, argv, "--cut", "0"));
  spec.cut_distance = cut > 0.0 ? cut : eps;
  spec.cut_min_size = 2;

  Result<EvaluationReport> report =
      EvaluateClustering(view, spec, points.labels());
  if (!report.ok()) return Fail(report.status());
  std::fputs(FormatReport(report.value()).c_str(), stdout);
  return 0;
}

// An in-process serving demo over the loaded file: starts a QueryServer
// (which runs the initial ε-Link clustering so membership queries have
// an answer), drives it with concurrent client threads issuing a mixed
// query workload while this thread applies point mutations — each batch
// of which publishes a new RCU epoch — then prints the serving stats.
int RunServe(int argc, char** argv, const Network& net,
             const PointSet& points, const InMemoryNetworkView& view) {
  uint32_t workers = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--workers", "4")));
  uint32_t clients = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--clients", "4")));
  if (clients == 0) clients = 1;
  uint64_t queries = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--queries", "2000")));
  uint32_t mutations = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--mutations", "16")));
  uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "42")));

  double eps = 0.0;
  std::string eps_flag = FlagValue(argc, argv, "--eps", "auto");
  if (eps_flag == "auto") {
    Result<double> suggested = SuggestEps(view, EpsSuggestionOptions{});
    if (!suggested.ok()) return Fail(suggested.status());
    eps = suggested.value();
    std::printf("eps = %.6f (auto)\n", eps);
  } else {
    eps = std::atof(eps_flag.c_str());
  }

  QueryServerOptions opts;
  opts.num_workers = workers;
  opts.validate_replay =
      std::strcmp(FlagValue(argc, argv, "--validate", "off"), "on") == 0;
  ClusterSpec spec;
  spec.algorithm = Algorithm::kEpsLink;
  spec.eps_link.eps = eps;
  spec.eps_link.min_sup = 2;
  opts.cluster_spec = spec;

  // --wal FILE makes mutations durable: accepted updates are logged
  // before they are applied, and a restart on the same file replays
  // them before publishing epoch 1 (a torn tail is truncated; a corrupt
  // middle refuses to boot).
  opts.wal_path = FlagValue(argc, argv, "--wal", "");
  // --wal-checkpoint-every N bounds replay: once the log holds N
  // records, the whole world is checkpointed into <wal>.ckpt.{a,b} and
  // the log is truncated behind it.
  opts.wal_checkpoint_every = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--wal-checkpoint-every", "0")));
  // --deadline-ms D stamps a soft deadline on every client query;
  // expired requests are shed or cancelled mid-traversal and resolve
  // with kDeadlineExceeded instead of blocking the queue.
  const double deadline_ms =
      std::atof(FlagValue(argc, argv, "--deadline-ms", "0"));

  Result<std::unique_ptr<QueryServer>> started =
      QueryServer::Start(net, points, opts);
  if (!started.ok()) return Fail(started.status());
  QueryServer& server = *started.value();
  std::printf("serving with %u workers%s; epoch %llu published\n",
              server.num_workers(),
              opts.validate_replay ? " (replay validation on)" : "",
              static_cast<unsigned long long>(server.current_epoch()));
  if (!opts.wal_path.empty()) {
    ServerStats boot = server.stats();
    std::printf("wal: %s (%llu records replayed at boot%s)\n",
                opts.wal_path.c_str(),
                static_cast<unsigned long long>(boot.wal_recoveries),
                boot.wal_recovered_from_checkpoint != 0
                    ? ", recovered from checkpoint"
                    : "");
    if (opts.wal_checkpoint_every > 0) {
      std::printf("checkpoint: every %llu records into %s.ckpt.{a,b}\n",
                  static_cast<unsigned long long>(opts.wal_checkpoint_every),
                  opts.wal_path.c_str());
    }
  }
  if (deadline_ms > 0.0) {
    std::printf("deadline: %.1f ms per query\n", deadline_ms);
  }

  // --port P switches serve to network mode: instead of driving an
  // in-process workload, front the server with a TCP listener (net/)
  // and let remote `netclus_cli query --connect` clients drive it.
  // Runs until --stop-file appears or --serve-seconds elapse.
  const char* port_flag = FlagValue(argc, argv, "--port", nullptr);
  if (port_flag != nullptr) {
    TcpServerOptions topts;
    topts.port = static_cast<uint16_t>(std::atoi(port_flag));
    Result<std::unique_ptr<TcpServer>> front =
        TcpServer::Start(&server, topts);
    if (!front.ok()) return Fail(front.status());
    TcpServer& tcp = *front.value();
    std::printf("listening on %s:%u\n", topts.host.c_str(), tcp.port());
    std::fflush(stdout);
    const char* port_file = FlagValue(argc, argv, "--port-file", nullptr);
    if (port_file != nullptr) {
      FILE* f = std::fopen(port_file, "w");
      if (f == nullptr) {
        return Fail(Status::IOError(std::string("cannot write port file ") +
                                    port_file));
      }
      std::fprintf(f, "%u\n", tcp.port());
      std::fclose(f);
    }
    const double serve_seconds =
        std::atof(FlagValue(argc, argv, "--serve-seconds", "120"));
    const char* stop_file = FlagValue(argc, argv, "--stop-file", nullptr);
    WallTimer up;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (stop_file != nullptr) {
        FILE* f = std::fopen(stop_file, "r");
        if (f != nullptr) {
          std::fclose(f);
          break;
        }
      }
      if (up.ElapsedSeconds() >= serve_seconds) break;
    }
    tcp.Stop();
    const TcpServerStats net_stats = tcp.stats();
    std::printf("net: %llu connections accepted (%llu refused), %llu frames "
                "in, %llu frames out, %llu corrupt\n",
                static_cast<unsigned long long>(net_stats.connections_accepted),
                static_cast<unsigned long long>(net_stats.connections_refused),
                static_cast<unsigned long long>(net_stats.frames_read),
                static_cast<unsigned long long>(net_stats.frames_written),
                static_cast<unsigned long long>(net_stats.corrupt_frames));
    ServerStats sstats = server.stats();
    if (opts.validate_replay) {
      std::printf("replay: %llu batches validated, %llu mismatches\n",
                  static_cast<unsigned long long>(sstats.replay_batches),
                  static_cast<unsigned long long>(sstats.replay_mismatches));
      if (sstats.replay_mismatches > 0) return 1;
    }
    HealthReport health = server.Healthz();
    std::printf("health: %s\n", ServerHealthName(health.health));
    return net_stats.corrupt_frames == 0 ? 0 : 1;
  }

  // Point ids are epoch-relative; querying only the initial ids stays
  // valid across mutations because the point count never shrinks.
  const PointId n_points = points.size();
  const uint64_t per_client = queries / clients;
  std::vector<uint64_t> ok_counts(clients, 0);
  std::vector<uint64_t> err_counts(clients, 0);
  std::vector<uint64_t> miss_counts(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer timer;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + 100 + c);
      for (uint64_t i = 0; i < per_client; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(n_points));
        PointId b = static_cast<PointId>(rng.NextBounded(n_points));
        QueryRequest req;
        switch (i % 4) {
          case 0: req = QueryRequest::PointDistance(a, b); break;
          case 1: req = QueryRequest::Range(a, eps); break;
          case 2: req = QueryRequest::NearestObject(a, 2); break;
          default: req = QueryRequest::ClusterMembership(a); break;
        }
        if (deadline_ms > 0.0) req.deadline_ms = deadline_ms;
        Result<QueryResponse> r = server.Execute(req);
        if (r.ok()) {
          ++ok_counts[c];
        } else if (r.status().IsDeadlineExceeded()) {
          ++miss_counts[c];
        } else {
          ++err_counts[c];
        }
      }
    });
  }

  std::vector<Edge> edges = net.Edges();
  Rng mrng(seed + 7);
  uint32_t applied = 0;
  for (uint32_t m = 0; m < mutations && !edges.empty(); ++m) {
    const Edge& e = edges[mrng.NextBounded(edges.size())];
    if (server
            .ApplyUpdate(NetworkUpdate::AddPoint(e.u, e.v, e.weight * 0.5, -1))
            .ok()) {
      ++applied;
    }
    std::this_thread::yield();
  }
  Status flushed = server.Flush();
  for (std::thread& t : threads) t.join();
  double seconds = timer.ElapsedSeconds();
  if (!flushed.ok()) return Fail(flushed);

  uint64_t ok = 0;
  uint64_t err = 0;
  uint64_t missed = 0;
  for (uint32_t c = 0; c < clients; ++c) {
    ok += ok_counts[c];
    err += err_counts[c];
    missed += miss_counts[c];
  }
  ServerStats stats = server.stats();
  std::printf("served %llu queries (%llu failed, %llu past deadline) in "
              "%.3f s = %.0f qps\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(err),
              static_cast<unsigned long long>(missed), seconds,
              seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0);
  std::printf("mutations applied: %u; epochs published %llu, drained %llu; "
              "final epoch %llu\n",
              applied,
              static_cast<unsigned long long>(stats.epochs_published),
              static_cast<unsigned long long>(stats.epochs_drained),
              static_cast<unsigned long long>(server.current_epoch()));
  std::printf("publishes: %llu full (mean %.2f ms), %llu incremental (mean "
              "%.2f ms); stages: points %.2f ms, csr %.2f ms; re-clusters: "
              "%llu full, %llu incremental (mean %.2f ms)\n",
              static_cast<unsigned long long>(stats.publishes_full),
              stats.mean_publish_full_ms,
              static_cast<unsigned long long>(stats.publishes_incremental),
              stats.mean_publish_incremental_ms,
              stats.mean_publish_points_ms, stats.mean_publish_splice_ms,
              static_cast<unsigned long long>(stats.reclusters_full),
              static_cast<unsigned long long>(stats.reclusters_incremental),
              stats.mean_recluster_ms);
  std::printf("batches %llu (mean size %.1f, mean %.2f ms); queue wait mean "
              "%.2f ms, max %.2f ms\n",
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_size, stats.mean_batch_ms,
              stats.mean_queue_wait_ms, stats.max_queue_wait_ms);
  if (opts.validate_replay) {
    std::printf("replay: %llu batches validated, %llu mismatches\n",
                static_cast<unsigned long long>(stats.replay_batches),
                static_cast<unsigned long long>(stats.replay_mismatches));
    if (stats.replay_mismatches > 0) return 1;
  }
  HealthReport health = server.Healthz();
  std::printf("health: %s (miss rate %.3f, publish failures %llu, wal "
              "records %llu, checkpoints %llu%s)\n",
              ServerHealthName(health.health), health.deadline_miss_rate,
              static_cast<unsigned long long>(stats.publish_failures),
              static_cast<unsigned long long>(stats.wal_records),
              static_cast<unsigned long long>(stats.checkpoints_written),
              health.wal_broken ? ", WAL BROKEN" : "");
  if (health.wal_broken) return 1;
  return err == 0 ? 0 : 1;
}

// Remote counterpart of the serve workload: connects to a running
// `serve --port` instance over the binary wire protocol and drives the
// same mixed query mix through net/client.h. With --check on, every
// remote answer is recomputed through the local inline path (same file,
// same eps-link spec as serve's default) and compared bit-exactly —
// client-side replay validation across the process boundary. The
// comparison assumes the server is serving this file's epoch 1 (no
// concurrent mutations).
int RunQuery(int argc, char** argv, const PointSet& points,
             const InMemoryNetworkView& view) {
  const char* connect = FlagValue(argc, argv, "--connect", nullptr);
  if (connect == nullptr) return Usage();
  const std::string hostport = connect;
  const size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon + 1 >= hostport.size()) {
    return Fail(Status::InvalidArgument("--connect expects HOST:PORT, got '" +
                                        hostport + "'"));
  }
  const std::string host = hostport.substr(0, colon);
  const uint16_t port =
      static_cast<uint16_t>(std::atoi(hostport.c_str() + colon + 1));

  uint32_t clients = static_cast<uint32_t>(
      std::atol(FlagValue(argc, argv, "--clients", "4")));
  if (clients == 0) clients = 1;
  uint64_t queries = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--queries", "2000")));
  uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagValue(argc, argv, "--seed", "42")));
  const double deadline_ms =
      std::atof(FlagValue(argc, argv, "--deadline-ms", "0"));
  const bool check =
      std::strcmp(FlagValue(argc, argv, "--check", "off"), "on") == 0;

  double eps = 0.0;
  std::string eps_flag = FlagValue(argc, argv, "--eps", "auto");
  if (eps_flag == "auto") {
    Result<double> suggested = SuggestEps(view, EpsSuggestionOptions{});
    if (!suggested.ok()) return Fail(suggested.status());
    eps = suggested.value();
    std::printf("eps = %.6f (auto)\n", eps);
  } else {
    eps = std::atof(eps_flag.c_str());
  }

  // The membership reference: the same clustering serve runs at boot.
  Clustering expect_clusters;
  if (check) {
    ClusterSpec spec;
    spec.algorithm = Algorithm::kEpsLink;
    spec.eps_link.eps = eps;
    spec.eps_link.min_sup = 2;
    Result<ClusterOutput> out = RunClustering(view, spec);
    if (!out.ok()) return Fail(out.status());
    expect_clusters = std::move(out.value().clustering);
  }

  const PointId n_points = points.size();
  const uint64_t per_client = queries / clients;
  std::vector<uint64_t> ok_counts(clients, 0);
  std::vector<uint64_t> err_counts(clients, 0);
  std::vector<uint64_t> miss_counts(clients, 0);
  std::vector<uint64_t> checked_counts(clients, 0);
  std::vector<uint64_t> mismatch_counts(clients, 0);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer timer;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.host = host;
      copts.port = port;
      Result<std::unique_ptr<QueryClient>> connected =
          QueryClient::Connect(copts);
      if (!connected.ok()) {
        err_counts[c] = per_client;
        return;
      }
      QueryClient& client = *connected.value();
      Rng rng(seed + 200 + c);
      for (uint64_t i = 0; i < per_client; ++i) {
        PointId a = static_cast<PointId>(rng.NextBounded(n_points));
        PointId b = static_cast<PointId>(rng.NextBounded(n_points));
        QueryRequest req;
        switch (i % 4) {
          case 0: req = QueryRequest::PointDistance(a, b); break;
          case 1: req = QueryRequest::Range(a, eps); break;
          case 2: req = QueryRequest::NearestObject(a, 2); break;
          default: req = QueryRequest::ClusterMembership(a); break;
        }
        if (deadline_ms > 0.0) req.deadline_ms = deadline_ms;
        Result<QueryResponse> r = client.Execute(req);
        if (!r.ok()) {
          if (r.status().IsDeadlineExceeded()) {
            ++miss_counts[c];
          } else {
            ++err_counts[c];
          }
          continue;
        }
        ++ok_counts[c];
        if (!check) continue;
        ++checked_counts[c];
        if (req.kind == QueryKind::kClusterMembership) {
          if (r.value().cluster_id != expect_clusters.assignment[a]) {
            ++mismatch_counts[c];
          }
          continue;
        }
        Result<QueryResponse> local = ExecuteQuery(view, nullptr, req);
        if (!local.ok() ||
            !ResponsePayloadsEqual(r.value(), local.value())) {
          ++mismatch_counts[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();

  uint64_t ok = 0;
  uint64_t err = 0;
  uint64_t missed = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  for (uint32_t c = 0; c < clients; ++c) {
    ok += ok_counts[c];
    err += err_counts[c];
    missed += miss_counts[c];
    checked += checked_counts[c];
    mismatches += mismatch_counts[c];
  }
  std::printf("remote: %llu queries ok (%llu failed, %llu past deadline) in "
              "%.3f s = %.0f qps over %u connections\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(err),
              static_cast<unsigned long long>(missed), seconds,
              seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0,
              clients);
  if (check) {
    std::printf("client replay: %llu validated, %llu mismatches\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(mismatches));
    if (mismatches > 0) return 1;
  }
  return err == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "generate") return RunGenerate(argc, argv);
  // `wal inspect` works on durability files alone — no --in network.
  if (cmd == "wal") {
    if (argc >= 3 && std::strcmp(argv[2], "inspect") == 0) {
      return RunWalInspect(argc, argv);
    }
    return Usage();
  }

  const char* in = FlagValue(argc, argv, "--in", nullptr);
  if (in == nullptr) return Usage();
  Result<std::pair<Network, PointSet>> loaded = LoadNetworkFile(in);
  if (!loaded.ok()) return Fail(loaded.status());
  const auto& [net, points] = loaded.value();
  InMemoryNetworkView view(net, points);
  std::printf("loaded %s: %u nodes, %zu edges, %u points\n", in,
              net.num_nodes(), net.num_edges(), points.size());

  if (cmd == "suggest") return RunSuggest(view);
  if (cmd == "cluster") return RunCluster(argc, argv, view, points);
  if (cmd == "serve") return RunServe(argc, argv, net, points, view);
  if (cmd == "query") return RunQuery(argc, argv, points, view);
  return Usage();
}
