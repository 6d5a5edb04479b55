// The TCP front end of the query service: accepts connections, decodes
// wire frames (net/wire.h), and feeds the requests into an existing
// QueryServer's admission queue — one acceptor thread plus one blocking
// reader thread per connection, all on netclus::Mutex discipline.
//
// The front end adds no semantics of its own. Backpressure, deadlines,
// health, and epoch stamping are the QueryServer's; this layer's job is
// to carry them across the process boundary faithfully:
//
//   * a kQuery frame becomes Submit() + wait; success returns the
//     QueryResponse as a kResponse frame whose payload is bit-identical
//     to what an in-process caller would see,
//   * a failed request returns a kStatus frame carrying the Status
//     code, message, the retry-after hint when the server attached one
//     (admission rejection), and the current ServerHealth,
//   * a kHealthz frame rides the queue-bypassing Submit path, so health
//     stays probeable while the queue is full,
//   * hostile bytes (bad magic/CRC/length) poison only their own
//     connection: the server answers with a best-effort kCorruption
//     status frame, drops the connection, and keeps serving the rest.
//
// Resource bounds: at most `max_connections` live connections (excess
// accepts are answered with a kUnavailable status frame carrying a
// retry hint, then closed), and an optional per-connection idle timeout
// (SO_RCVTIMEO under the hood) reaps clients that stopped talking.
//
// Lifecycle: Start() binds and begins accepting (port 0 = ephemeral;
// read the bound port back with port()). Stop() shuts the listener
// down, unblocks every connection reader, joins all threads, and is
// idempotent; the destructor calls it. The TcpServer must be stopped or
// destroyed before the QueryServer it fronts.
#ifndef NETCLUS_NET_TCP_SERVER_H_
#define NETCLUS_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/query_server.h"

namespace netclus {

/// \brief Transport knobs.
struct TcpServerOptions {
  /// Bind address. Loopback by default — serving beyond the local host
  /// is an explicit decision.
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (read back via port()).
  uint16_t port = 0;
  /// Live-connection bound; accepts beyond it are refused over the wire
  /// with kUnavailable + retry hint.
  size_t max_connections = 64;
  /// Seconds of silence before a connection is reaped; 0 disables.
  double idle_timeout_seconds = 0.0;
  int backlog = 64;
  /// Refused-connection retry hint carried in the kStatus frame.
  double refuse_retry_after_ms = 50.0;
};

/// \brief Transport counters (monotonic since Start).
struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< over max_connections
  uint64_t connections_closed = 0;   ///< reader loops finished
  uint64_t idle_disconnects = 0;     ///< reaped by the idle timeout
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t corrupt_frames = 0;    ///< connections poisoned by bad bytes
  uint64_t protocol_errors = 0;   ///< well-formed but nonsensical frames
  uint64_t queries = 0;           ///< kQuery frames submitted
  uint64_t healthz_probes = 0;    ///< kHealthz frames answered
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  size_t open_connections = 0;  ///< live right now (gauge)
};

/// \brief The socket front end. Create with Start(), stop with Stop()
/// (or destruction). Thread-safe.
class TcpServer {
 public:
  /// Binds `options.host:options.port` and starts accepting. `server`
  /// is borrowed and must outlive this front end.
  static Result<std::unique_ptr<TcpServer>> Start(
      QueryServer* server, const TcpServerOptions& options);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolved when options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, unblocks and joins every connection reader, and
  /// closes all sockets. Idempotent.
  void Stop();

  TcpServerStats stats() const;

 private:
  /// One live connection: its socket plus the reader thread draining it.
  struct Connection {
    Socket sock;
    std::thread reader;
    /// Reader loop finished; the connection is reapable.
    std::atomic<bool> done{false};
  };

  TcpServer(QueryServer* server, const TcpServerOptions& options,
            ListenSocket listener);

  void AcceptLoop();
  void ReaderLoop(Connection* conn);

  /// Serves one decoded frame on `conn`; false = drop the connection.
  bool HandleFrame(Connection* conn, const WireFrame& frame);

  /// Frames `status` (+ current server health) and best-effort sends it.
  void SendStatus(Connection* conn, const Status& status);
  /// Sends pre-encoded frame bytes, bumping frame/byte counters.
  bool SendEncoded(Connection* conn, const std::string& encoded);

  /// Joins and erases connections whose reader loops have finished.
  /// Acceptor thread (and Stop) only.
  void ReapFinishedLocked() NETCLUS_REQUIRES(mu_);

  /// TcpServerStats' monotonic counters as relaxed atomics: each is
  /// bumped on its own, and no reader relates one to another mid-flight.
  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_refused{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> idle_disconnects{0};
    std::atomic<uint64_t> frames_read{0};
    std::atomic<uint64_t> frames_written{0};
    std::atomic<uint64_t> corrupt_frames{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> healthz_probes{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> bytes_written{0};
  };

  /// Adds `n` to one counter.
  static void Bump(std::atomic<uint64_t>* counter, uint64_t n = 1) {
    counter->fetch_add(n, std::memory_order_relaxed);
  }

  QueryServer* const server_;  ///< borrowed; outlives the front end
  const TcpServerOptions options_;
  ListenSocket listener_;

  // Connection table and the stopping flag. Never held across a
  // blocking socket operation or a Submit, and never taken by a reader
  // on its per-frame path: the counters below need no lock.
  mutable Mutex mu_{lock_rank::kNetServer, "TcpServer::mu_"};
  std::vector<std::unique_ptr<Connection>> connections_
      NETCLUS_GUARDED_BY(mu_);
  bool stopping_ NETCLUS_GUARDED_BY(mu_) = false;
  Counters counters_;

  std::thread acceptor_;
};

}  // namespace netclus

#endif  // NETCLUS_NET_TCP_SERVER_H_
