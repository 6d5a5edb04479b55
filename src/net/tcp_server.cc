#include "net/tcp_server.h"

#include <utility>

namespace netclus {
namespace {

/// Reader-side receive buffer. Small enough to stay cache-friendly,
/// large enough that a typical request arrives in one Recv.
constexpr size_t kRecvChunkBytes = 4096;

}  // namespace

TcpServer::TcpServer(QueryServer* server, const TcpServerOptions& options,
                     ListenSocket listener)
    : server_(server), options_(options), listener_(std::move(listener)) {}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    QueryServer* server, const TcpServerOptions& options) {
  if (server == nullptr) {
    return Status::InvalidArgument("TcpServer requires a QueryServer");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  NETCLUS_ASSIGN_OR_RETURN(
      ListenSocket listener,
      ListenSocket::Listen(options.host, options.port, options.backlog));
  // make_unique needs a public constructor; bare new keeps it private.
  auto tcp = std::unique_ptr<TcpServer>(new TcpServer(
      server, options, std::move(listener)));
  tcp->acceptor_ = std::thread(&TcpServer::AcceptLoop, tcp.get());
  return tcp;
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      // A previous Stop already ran (or is running) the join sequence.
      if (!acceptor_.joinable() && connections_.empty()) return;
    }
    stopping_ = true;
  }
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  // Unblock every reader (Recv returns EOF after ShutdownBoth), then
  // join outside the lock.
  std::vector<std::unique_ptr<Connection>> draining;
  {
    MutexLock lock(&mu_);
    for (auto& conn : connections_) conn->sock.ShutdownBoth();
    draining.swap(connections_);
  }
  for (auto& conn : draining) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  listener_.Close();
}

void TcpServer::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      // kUnavailable = listener shut down (the clean-stop signal); any
      // hard accept error also ends the acceptor — connections already
      // established keep being served until Stop.
      return;
    }
    Socket sock = std::move(accepted).value();
    bool refuse = false;
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
      ReapFinishedLocked();
      if (connections_.size() >= options_.max_connections) {
        Bump(&counters_.connections_refused);
        refuse = true;
      }
    }
    if (refuse) {
      // Refusal is a first-class protocol answer, not a silent close:
      // the client gets the same structured kUnavailable + retry hint
      // the admission queue would send, just one layer earlier.
      const WireStatus ws = WireStatus::FromStatus(
          Status::UnavailableWithRetry("connection limit reached",
                                       options_.refuse_retry_after_ms),
          server_->CurrentHealth());
      const std::string frame = EncodeStatusFrame(ws);
      if (sock.SendAll(frame.data(), frame.size()).ok()) {
        Bump(&counters_.bytes_written, frame.size());
        Bump(&counters_.frames_written);
      }
      continue;  // sock closes on scope exit
    }
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    if (options_.idle_timeout_seconds > 0.0) {
      (void)conn->sock.SetRecvTimeout(options_.idle_timeout_seconds);
    }
    Connection* raw = conn.get();
    {
      MutexLock lock(&mu_);
      if (stopping_) return;  // conn closes on scope exit
      Bump(&counters_.connections_accepted);
      connections_.push_back(std::move(conn));
      raw->reader = std::thread(&TcpServer::ReaderLoop, this, raw);
    }
  }
}

void TcpServer::ReaderLoop(Connection* conn) {
  FrameReader reader;
  char buf[kRecvChunkBytes];
  bool idle = false;
  for (;;) {
    Result<size_t> received = conn->sock.Recv(buf, sizeof(buf));
    if (!received.ok()) {
      idle = received.status().code() == Status::Code::kDeadlineExceeded;
      if (idle) {
        SendStatus(conn,
                   Status::DeadlineExceeded("idle timeout: disconnecting"));
      }
      break;
    }
    const size_t n = received.value();
    if (n == 0) break;  // orderly EOF
    Bump(&counters_.bytes_read, n);
    reader.Append(buf, n);
    bool drop = false;
    for (;;) {
      WireFrame frame;
      bool got = false;
      const Status s = reader.Next(&frame, &got);
      if (!s.ok()) {
        // Framing is lost; tell the peer why (best effort) and drop.
        Bump(&counters_.corrupt_frames);
        SendStatus(conn, s);
        drop = true;
        break;
      }
      if (!got) break;  // partial frame stays buffered
      Bump(&counters_.frames_read);
      if (!HandleFrame(conn, frame)) {
        drop = true;
        break;
      }
    }
    if (drop) break;
  }
  conn->sock.ShutdownBoth();
  Bump(&counters_.connections_closed);
  if (idle) Bump(&counters_.idle_disconnects);
  // After this store the thread touches nothing of *this — which is
  // what makes joining it under mu_ (ReapFinishedLocked) safe.
  conn->done.store(true, std::memory_order_release);
}

bool TcpServer::HandleFrame(Connection* conn, const WireFrame& frame) {
  switch (frame.type) {
    case FrameType::kQuery: {
      QueryRequest req;
      const Status decoded =
          DecodeQueryPayload(frame.payload.data(), frame.payload.size(), &req);
      if (!decoded.ok()) {
        Bump(&counters_.corrupt_frames);
        SendStatus(conn, decoded);
        return false;
      }
      Bump(&counters_.queries);
      Result<QueryResponse> result = server_->Execute(req);
      if (!result.ok()) {
        // Carries the admission retry hint / deadline verdict verbatim;
        // a failed request does not cost the connection.
        SendStatus(conn, result.status());
        return true;
      }
      return SendEncoded(conn, EncodeResponseFrame(result.value()));
    }
    case FrameType::kHealthz: {
      if (!frame.payload.empty()) {
        Bump(&counters_.protocol_errors);
        SendStatus(conn, Status::Corruption(
                             "wire: healthz frame carries a payload"));
        return false;
      }
      Bump(&counters_.healthz_probes);
      Result<QueryResponse> result = server_->Execute(QueryRequest::Healthz());
      if (!result.ok()) {
        SendStatus(conn, result.status());
        return true;
      }
      return SendEncoded(conn, EncodeResponseFrame(result.value()));
    }
    case FrameType::kResponse:
    case FrameType::kStatus: {
      // Server-to-client frame types arriving at the server: the peer
      // is confused; answer once and hang up.
      Bump(&counters_.protocol_errors);
      SendStatus(conn,
                 Status::InvalidArgument(
                     std::string("wire: unexpected client frame type '") +
                     FrameTypeName(frame.type) + "'"));
      return false;
    }
  }
  return false;  // unreachable: FrameReader rejects unknown types
}

void TcpServer::SendStatus(Connection* conn, const Status& status) {
  const WireStatus ws =
      WireStatus::FromStatus(status, server_->CurrentHealth());
  (void)SendEncoded(conn, EncodeStatusFrame(ws));
}

bool TcpServer::SendEncoded(Connection* conn, const std::string& encoded) {
  if (!conn->sock.SendAll(encoded.data(), encoded.size()).ok()) return false;
  Bump(&counters_.bytes_written, encoded.size());
  Bump(&counters_.frames_written);
  return true;
}

void TcpServer::ReapFinishedLocked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

TcpServerStats TcpServer::stats() const {
  auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  TcpServerStats out;
  out.connections_accepted = load(counters_.connections_accepted);
  out.connections_refused = load(counters_.connections_refused);
  out.connections_closed = load(counters_.connections_closed);
  out.idle_disconnects = load(counters_.idle_disconnects);
  out.frames_read = load(counters_.frames_read);
  out.frames_written = load(counters_.frames_written);
  out.corrupt_frames = load(counters_.corrupt_frames);
  out.protocol_errors = load(counters_.protocol_errors);
  out.queries = load(counters_.queries);
  out.healthz_probes = load(counters_.healthz_probes);
  out.bytes_read = load(counters_.bytes_read);
  out.bytes_written = load(counters_.bytes_written);
  MutexLock lock(&mu_);
  size_t open = 0;
  for (const auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) ++open;
  }
  out.open_connections = open;
  return out;
}

}  // namespace netclus
