#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "server/world.h"

namespace netclus {
namespace {

constexpr size_t kWaitRingCapacity = 1 << 16;

// WAL page size: the storage stack's standard 4 KiB frame (128 records).
constexpr uint32_t kWalPageSize = 4096;

// Deadline-miss-rate degradation needs at least this many samples in
// the window before it can flip health — a couple of early misses on a
// cold server must not read as degradation.
constexpr size_t kMinHealthSamples = 16;

// Cold-start backpressure model: with no measured drain time yet,
// assume roughly this much work per queued request, spread across the
// workers. Deliberately rough; replaced by the measured mean after the
// first drain.
constexpr double kColdStartPerRequestMs = 0.05;

// Deadlines further out than this (~30 years) are clamped, so converting
// one to the steady clock's integer ticks cannot overflow.
constexpr double kMaxDeadlineMs = 1e12;

// Whether the publish oracles and served-batch replay run: on request,
// and always in -DNETCLUS_VALIDATE=ON builds.
bool ValidationOn(const QueryServerOptions& options) {
#if defined(NETCLUS_VALIDATE)
  (void)options;
  return true;
#else
  return options.validate_replay;
#endif
}

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    Network net, PointSet points, const QueryServerOptions& options) {
  if (options.max_queue_depth == 0) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options.max_batch_size == 0) {
    return Status::InvalidArgument("max_batch_size must be >= 1");
  }
  auto server = std::unique_ptr<QueryServer>(new QueryServer(options));
  // Crash recovery happens before the first publish: the recovered
  // mutations are part of the boot world, so epoch 1 already serves
  // them. A corrupt log fails Start — no epoch is ever built from a
  // partially trusted record sequence.
  NETCLUS_RETURN_IF_ERROR(server->BootWorld(std::move(net), points));
  // Epoch 1 publishes before any thread starts; a failing initial
  // clustering (or freeze) fails Start instead of leaving a server with
  // nothing to serve.
  NETCLUS_RETURN_IF_ERROR(server->PublishWorld());
  const NodeId num_nodes = server->world_->num_nodes();
  server->workers_.reserve(server->num_workers_);
  for (uint32_t w = 0; w < server->num_workers_; ++w) {
    server->workers_.emplace_back(
        [s = server.get(), num_nodes] { s->WorkerLoop(num_nodes); });
  }
  server->updater_ = std::thread([s = server.get()] { s->UpdaterLoop(); });
  return server;
}

QueryServer::QueryServer(const QueryServerOptions& options)
    : options_(options),
      num_workers_(ResolveNumThreads(options.num_workers)),
      chaos_stall_rng_(Rng::DeriveSeed(options.chaos.seed, 2)),
      chaos_publish_rng_(Rng::DeriveSeed(options.chaos.seed, 1)) {
  wait_ring_.reserve(kWaitRingCapacity);
  outcome_ring_.assign(options_.health_window, 0);
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::BootWorld(Network net, const PointSet& points) {
  if (options_.wal_file != nullptr || !options_.wal_path.empty()) {
    PagedFile* file = options_.wal_file;
    if (file == nullptr) {
      NETCLUS_ASSIGN_OR_RETURN(owned_wal_file_,
                               PagedFile::Open(options_.wal_path, kWalPageSize,
                                               /*truncate=*/false));
      file = owned_wal_file_.get();
    }
    NETCLUS_ASSIGN_OR_RETURN(wal_, MutationWal::Open(file));
  }

  // The checkpoint store opens whenever one can exist: injected slot
  // files, or a path-backed WAL (a previous run may have checkpointed
  // even if this run's wal_checkpoint_every is 0 — a compacted log is
  // unusable without its checkpoint).
  if (wal_ != nullptr && (options_.checkpoint_file_a != nullptr ||
                          options_.checkpoint_file_b != nullptr)) {
    if (options_.checkpoint_file_a == nullptr ||
        options_.checkpoint_file_b == nullptr) {
      return Status::InvalidArgument(
          "checkpoint_file_a/b must be set together");
    }
    checkpoints_ = std::make_unique<CheckpointStore>(
        options_.checkpoint_file_a, options_.checkpoint_file_b);
  } else if (!options_.wal_path.empty()) {
    NETCLUS_ASSIGN_OR_RETURN(
        checkpoints_, CheckpointStore::Open(options_.wal_path, kWalPageSize));
  }

  // Recovery order: the newest durable checkpoint's world replaces the
  // caller-provided one, then the uncovered log suffix goes on top.
  WorldOptions world_options;
  world_options.cluster_spec = options_.cluster_spec;
  world_options.cache_capacity = options_.cache_capacity;
  world_options.validate = ValidationOn(options_);
  CheckpointState state;
  bool from_checkpoint = false;
  if (checkpoints_ != nullptr) {
    NETCLUS_RETURN_IF_ERROR(checkpoints_->ReadLatest(&state, &from_checkpoint));
  }
  uint64_t skip = 0;
  if (from_checkpoint) {
    if (state.covers_seq < wal_->start_seq()) {
      // The log was compacted past what this checkpoint covers — a
      // newer checkpoint must have existed and is gone. Refuse to guess
      // the gap.
      return Status::Corruption(
          "wal: log starts at seq " + std::to_string(wal_->start_seq()) +
          " but the newest checkpoint only covers seq " +
          std::to_string(state.covers_seq));
    }
    if (state.num_nodes != net.num_nodes()) {
      return Status::Corruption(
          "checkpoint names " + std::to_string(state.num_nodes) +
          " nodes but the boot network has " +
          std::to_string(net.num_nodes()) +
          " (node count is fixed at Start)");
    }
    NETCLUS_ASSIGN_OR_RETURN(World restored,
                             World::Restore(state, std::move(world_options)));
    world_ = std::make_unique<World>(std::move(restored));
    ckpt_generation_ = state.generation;
    skip = std::min<uint64_t>(state.covers_seq - wal_->start_seq(),
                              wal_->recovery().records.size());
  } else {
    if (wal_ != nullptr && wal_->start_seq() > 0) {
      return Status::Corruption(
          "wal: log was compacted (starts at seq " +
          std::to_string(wal_->start_seq()) +
          ") but no valid covering checkpoint exists");
    }
    world_ = std::make_unique<World>(
        World::Boot(std::move(net), points, std::move(world_options)));
  }
  if (wal_ == nullptr) return Status::OK();

  const std::vector<NetworkUpdate>& records = wal_->recovery().records;
  for (size_t i = static_cast<size_t>(skip); i < records.size(); ++i) {
    Status applied = world_->Apply(records[i]);
    // Records are logged before they are applied, so a mutation the
    // live server rejected (kInvalidArgument) is in the log too — and
    // replaying it fails identically, reproducing the same world. Any
    // other failure is a real recovery error.
    if (!applied.ok() && !applied.IsInvalidArgument()) return applied;
  }
  // Start is single-threaded here, but these live with the serving
  // statistics, so they are written under their lock like everything
  // else the analysis guards.
  MutexLock lock(&stats_mu_);
  wal_recovered_ = records.size() - static_cast<size_t>(skip);
  wal_recovered_from_checkpoint_ = from_checkpoint;
  if (from_checkpoint) wal_checkpoint_covers_ = state.covers_seq;
  return Status::OK();
}

void QueryServer::MaybeCheckpoint() {
  if (wal_ == nullptr || checkpoints_ == nullptr ||
      options_.wal_checkpoint_every == 0 || wal_->broken()) {
    return;
  }
  if (wal_->num_records() < options_.wal_checkpoint_every) return;
  // Order is the crash-safety argument: the checkpoint is written
  // BEFORE the log shrinks. A process crash after Write but before
  // TruncateTo just replays records the checkpoint already covers
  // (replay is idempotent: it skips the covered prefix). Nothing is
  // synced, so this holds for a process crash, not for an OS crash or a
  // power cut, which can persist the truncation without the checkpoint.
  WallTimer timer;
  CheckpointState state = world_->Checkpoint();
  state.covers_seq = wal_->next_seq();
  state.generation = ckpt_generation_ + 1;
  Status written = checkpoints_->Write(state);
  if (!written.ok()) {
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  ckpt_generation_ = state.generation;
  Status truncated = wal_->TruncateTo(state.covers_seq);
  if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
  if (!truncated.ok()) {
    // The checkpoint is written; only the log is still long. The next
    // cycle retries the truncate (via a fresh checkpoint generation).
    MutexLock lock(&stats_mu_);
    ++checkpoint_failures_;
    return;
  }
  const double checkpoint_ms = timer.ElapsedMillis();
  MutexLock lock(&stats_mu_);
  ++checkpoints_written_;
  checkpoint_ms_.Add(checkpoint_ms);
  wal_checkpoint_covers_ = state.covers_seq;
}

Status QueryServer::PublishWorld() {
  WallTimer timer;
  NETCLUS_ASSIGN_OR_RETURN(World::Epoch epoch, world_->Build());
  epochs_.Publish(std::move(epoch.graph), std::move(epoch.clusters),
                  std::move(epoch.cache), std::move(epoch.ids));
  const double publish_ms = timer.ElapsedMillis();
  MutexLock lock(&stats_mu_);
  if (epoch.incremental) {
    ++publishes_incremental_;
    publish_incremental_ms_.Add(publish_ms);
  } else {
    ++publishes_full_;
    publish_full_ms_.Add(publish_ms);
  }
  publish_points_ms_.Add(epoch.points_ms);
  publish_csr_ms_.Add(epoch.csr_ms);
  if (epoch.landmarks_repaired) landmark_repair_ms_.Add(epoch.landmarks_ms);
  if (options_.cluster_spec.has_value()) {
    ++(epoch.recluster_incremental ? reclusters_incremental_
                                   : reclusters_full_);
    recluster_ms_.Add(epoch.recluster_ms);
  }
  return Status::OK();
}

std::future<Result<QueryResponse>> QueryServer::Submit(
    const QueryRequest& req) {
  PendingQuery pq;
  pq.req = req;
  pq.enqueue_seconds = clock_.ElapsedSeconds();
  std::future<Result<QueryResponse>> fut = pq.promise.get_future();

  // Health probes bypass admission control entirely: they must stay
  // answerable exactly when the queue is full or the server is
  // degraded, and they never cost a worker.
  if (req.kind == QueryKind::kHealthz) {
    QueryResponse resp;
    resp.kind = QueryKind::kHealthz;
    resp.health = CurrentHealth();
    resp.epoch = epochs_.current_epoch();
    pq.promise.set_value(std::move(resp));
    return fut;
  }

  if (req.deadline_ms > 0.0 && std::isfinite(req.deadline_ms)) {
    pq.deadline =
        TraversalCancel::Clock::now() +
        std::chrono::duration_cast<TraversalCancel::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::min(req.deadline_ms, kMaxDeadlineMs)));
  }

  MutexLock lock(&queue_mu_);
  if (stopping_) {
    lock.Unlock();
    pq.promise.set_value(Status::Unavailable("query server is stopping"));
    MutexLock slock(&stats_mu_);
    ++rejected_;
    return fut;
  }
  if (queue_.size() >= options_.max_queue_depth) {
    // Backpressure: reject now with a retry-after hint. Warm, the hint
    // is the measured mean drain duration times the rounds of full
    // drains the backlog represents, the workers draining in parallel;
    // cold (nothing drained yet, so no measured rate) it is a depth- and
    // worker-aware model instead of a blind constant. Clients read the
    // structured field; the text echo is for humans and logs.
    const double depth = static_cast<double>(queue_.size());
    double retry_ms;
    {
      // queue_mu_ (rank 30) -> stats_mu_ (rank 90): the one sanctioned
      // nesting between the serving locks.
      MutexLock slock(&stats_mu_);
      ++rejected_;
      const double workers = static_cast<double>(num_workers_);
      if (batch_ms_.count() > 0) {
        const double rounds_queued = std::max(
            1.0,
            std::ceil(depth / (static_cast<double>(options_.max_batch_size) *
                               workers)));
        retry_ms = batch_ms_.mean() * rounds_queued;
      } else {
        retry_ms = std::max(0.1, kColdStartPerRequestMs * depth / workers);
      }
    }
    lock.Unlock();
    pq.promise.set_value(Status::UnavailableWithRetry(
        "query queue full (" + std::to_string(options_.max_queue_depth) +
            " deep); retry after ~" + std::to_string(retry_ms) + " ms",
        retry_ms));
    return fut;
  }
  queue_.push_back(std::move(pq));
  ++accepted_;
  const bool wake = ClaimWakeLocked();
  lock.Unlock();
  if (wake) queue_cv_.NotifyOne();
  return fut;
}

bool QueryServer::ClaimWakeLocked() {
  // Without a parked worker every worker is between drains and re-checks
  // the queue before it parks; with a wake pending, the worker it wakes
  // passes the signal on if it leaves requests behind.
  if (idle_workers_ == 0 || wake_pending_) return false;
  wake_pending_ = true;
  ++worker_wakes_;
  return true;
}

Result<QueryResponse> QueryServer::Execute(const QueryRequest& req) {
  return Submit(req).get();
}

std::future<Status> QueryServer::SubmitUpdate(const NetworkUpdate& update) {
  PendingUpdate pu;
  pu.update = update;
  std::future<Status> fut = pu.promise.get_future();
  {
    MutexLock lock(&update_mu_);
    if (update_stopping_) {
      pu.promise.set_value(Status::Unavailable("query server is stopping"));
      return fut;
    }
    pu.seq = ++update_seq_;
    update_queue_.push_back(std::move(pu));
  }
  update_cv_.NotifyOne();
  return fut;
}

Status QueryServer::ApplyUpdate(const NetworkUpdate& update) {
  return SubmitUpdate(update).get();
}

Status QueryServer::Flush() {
  MutexLock lock(&update_mu_);
  const uint64_t target = update_seq_;
  while (published_seq_ < target) flush_cv_.Wait(&update_mu_);
  return last_publish_error_;
}

void QueryServer::Stop() {
  stopping_flag_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  {
    MutexLock lock(&update_mu_);
    update_stopping_ = true;
  }
  update_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (updater_.joinable()) updater_.join();
}

ServerHealth QueryServer::CurrentHealth() const {
  if (stopping_flag_.load(std::memory_order_relaxed)) {
    return ServerHealth::kStopping;
  }
  if (wal_broken_.load(std::memory_order_relaxed)) {
    return ServerHealth::kDegraded;
  }
  if (options_.degraded_publish_failures > 0 &&
      consecutive_publish_failures_.load(std::memory_order_relaxed) >=
          options_.degraded_publish_failures) {
    return ServerHealth::kDegraded;
  }
  if (miss_rate_degraded_.load(std::memory_order_relaxed)) {
    return ServerHealth::kDegraded;
  }
  return ServerHealth::kServing;
}

HealthReport QueryServer::Healthz() const {
  HealthReport report;
  report.health = CurrentHealth();
  report.epoch = epochs_.current_epoch();
  report.consecutive_publish_failures =
      consecutive_publish_failures_.load(std::memory_order_relaxed);
  report.wal_broken = wal_broken_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&stats_mu_);
    report.deadline_miss_rate = DeadlineMissRateLocked();
  }
  {
    MutexLock lock(&queue_mu_);
    report.queue_depth = queue_.size();
  }
  return report;
}

void QueryServer::RecordOutcomeLocked(bool deadline_missed) {
  if (outcome_ring_.empty()) return;
  if (outcome_full_ && outcome_ring_[outcome_next_] != 0) --outcome_misses_;
  outcome_ring_[outcome_next_] = deadline_missed ? 1 : 0;
  if (deadline_missed) ++outcome_misses_;
  if (++outcome_next_ == outcome_ring_.size()) {
    outcome_next_ = 0;
    outcome_full_ = true;
  }
  // The window changes only here, so the verdict stored now is the one
  // a reader would compute from the window until the next outcome.
  if (options_.degraded_miss_rate > 0.0) {
    const size_t samples =
        outcome_full_ ? outcome_ring_.size() : outcome_next_;
    miss_rate_degraded_.store(
        samples >= kMinHealthSamples &&
            DeadlineMissRateLocked() >= options_.degraded_miss_rate,
        std::memory_order_relaxed);
  }
}

double QueryServer::DeadlineMissRateLocked() const {
  const size_t samples = outcome_full_ ? outcome_ring_.size() : outcome_next_;
  if (samples == 0) return 0.0;
  return static_cast<double>(outcome_misses_) / static_cast<double>(samples);
}

void QueryServer::WorkerLoop(NodeId num_nodes) {
  TraversalWorkspace ws(num_nodes);
  ws.cancel.check_interval = options_.cancel_check_interval;
  DrainBuffers buf;
  std::vector<PendingQuery>& batch = buf.batch;
  std::vector<PendingQuery>& shed = buf.shed;
  for (;;) {
    batch.clear();
    shed.clear();
    double stall_ms = 0.0;
    bool wake_next = false;
    {
      MutexLock lock(&queue_mu_);
      while (!stopping_ && queue_.empty()) {
        ++idle_workers_;
        ++worker_parks_;
        queue_cv_.Wait(&queue_mu_);
        --idle_workers_;
        // Whatever ended the wait, the pending wake (if any) has done
        // its job or been overtaken: a worker is awake and will look at
        // the queue, so the next Submit may signal again.
        wake_pending_ = false;
      }
      // Stopping with nothing queued: drained; accepted work always
      // finishes.
      if (queue_.empty()) return;
      // A shallow queue spreads across idle workers; a deep one is taken
      // max_batch_size at a time. Shed requests resolve with
      // kDeadlineExceeded right here, costing no execution, and never
      // count against the drain.
      const size_t take = std::min(
          options_.max_batch_size,
          (queue_.size() + num_workers_ - 1) / num_workers_);
      const TraversalCancel::Clock::time_point now =
          TraversalCancel::Clock::now();
      while (batch.size() < take && !queue_.empty()) {
        PendingQuery pq = std::move(queue_.front());
        queue_.pop_front();
        if (now >= pq.deadline) {
          shed.push_back(std::move(pq));
        } else {
          batch.push_back(std::move(pq));
        }
      }
      // Chaos: one draw per drain, in drain order (the queue lock
      // serializes the draws across workers).
      if (!batch.empty() && options_.chaos.worker_stall_prob > 0.0 &&
          chaos_stall_rng_.NextBernoulli(options_.chaos.worker_stall_prob)) {
        stall_ms = options_.chaos.worker_stall_ms;
      }
      // Requests left behind this drain get a parked worker of their own
      // rather than waiting for this one to finish.
      wake_next = !queue_.empty() && ClaimWakeLocked();
    }
    if (wake_next) queue_cv_.NotifyOne();
    if (!shed.empty()) {
      {
        MutexLock slock(&stats_mu_);
        // Shed requests complete (with an error) — every accepted
        // request still resolves exactly once.
        completed_ += shed.size();
        deadline_expired_ += shed.size();
        for (size_t i = 0; i < shed.size(); ++i) RecordOutcomeLocked(true);
      }
      for (PendingQuery& pq : shed) {
        const double late_ms = std::chrono::duration<double, std::milli>(
                                   TraversalCancel::Clock::now() - pq.deadline)
                                   .count();
        pq.promise.set_value(Status::DeadlineExceeded(
            "deadline passed " + std::to_string(late_ms) +
            " ms ago while queued; request shed before execution"));
      }
    }
    if (!batch.empty()) ExecuteBatch(&buf, stall_ms, &ws);
  }
}

void QueryServer::ExecuteBatch(DrainBuffers* buf, double stall_ms,
                               TraversalWorkspace* ws) {
  std::vector<PendingQuery>* batch = &buf->batch;
  const double start_seconds = clock_.ElapsedSeconds();
  // Holding the shared_ptr is the pin: the epoch stays alive for this
  // drain even if the updater publishes a newer one meanwhile.
  std::shared_ptr<const EpochSnapshot> pinned = epochs_.Current();
  if (pinned == nullptr) {
    for (PendingQuery& pq : *batch) {
      pq.promise.set_value(Status::Internal("no epoch published"));
    }
    return;
  }
  const EpochSnapshot& snap = *pinned;
  if (stall_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall_ms));
  }
  const ServerHealth health = CurrentHealth();

  const size_t n = batch->size();
  // Reused across drains: ExecuteQueryInto resets every field it answers
  // with, and every status is assigned below.
  std::vector<QueryResponse>& responses = buf->responses;
  std::vector<Status>& statuses = buf->statuses;
  responses.resize(n);
  statuses.resize(n);
  for (size_t i = 0; i < n; ++i) {
    PendingQuery& pq = (*batch)[i];
    // A distance served without landmark tables asks the updater for
    // them; this one runs the plain search, which gives the same bits.
    if (pq.req.kind == QueryKind::kPointDistance &&
        snap.frozen().landmarks() == nullptr) {
      RequestLandmarks();
    }
    // The workspace is this worker's alone, so the token only has to be
    // re-armed per request (kNoDeadline leaves it inert).
    ws->cancel.deadline = pq.deadline;
    statuses[i] = ExecuteQueryInto(snap.view(), &snap.frozen(), pq.req, ws,
                                   snap.cache(), snap.clusters(), &responses[i],
                                   snap.ids());
    responses[i].epoch = snap.epoch();
    responses[i].health = health;
  }

  if (ValidationOn(options_)) {
    std::vector<QueryRequest> ok_requests;
    std::vector<QueryResponse> ok_responses;
    for (size_t i = 0; i < n; ++i) {
      if (statuses[i].ok()) {
        ok_requests.push_back((*batch)[i].req);
        ok_responses.push_back(responses[i]);
      }
    }
    Status verdict = ValidateServedBatch(snap.view(), &snap.frozen(),
                                         ok_requests, ok_responses,
                                         snap.clusters(), snap.ids());
    {
      MutexLock lock(&stats_mu_);
      ++replay_batches_;
      if (!verdict.ok()) ++replay_mismatches_;
    }
    if (!verdict.ok()) {
      // A divergence means the served epoch path computed something the
      // direct path would not — never hand that out as an answer.
      for (size_t i = 0; i < n; ++i) {
        if (statuses[i].ok()) statuses[i] = verdict;
      }
    }
  }

  // Count the drain before fulfilling its promises: a client holding a
  // response must already be visible in stats().completed.
  const double end_seconds = clock_.ElapsedSeconds();
  {
    MutexLock lock(&stats_mu_);
    ++batches_;
    completed_ += n;
    batch_size_.Add(static_cast<double>(n));
    batch_ms_.Add((end_seconds - start_seconds) * 1e3);
    for (size_t i = 0; i < n; ++i) {
      const bool missed = statuses[i].IsDeadlineExceeded();
      if (missed) ++cancelled_traversals_;
      RecordOutcomeLocked(missed);
    }
    for (const PendingQuery& pq : *batch) {
      double wait_ms = (start_seconds - pq.enqueue_seconds) * 1e3;
      queue_wait_ms_.Add(wait_ms);
      if (wait_ring_.size() < kWaitRingCapacity) {
        wait_ring_.push_back(wait_ms);
      } else {
        wait_ring_[wait_ring_next_] = wait_ms;
        wait_ring_next_ = (wait_ring_next_ + 1) % kWaitRingCapacity;
      }
    }
  }

  // Let go of the epoch before fulfilling too: a drain that outlived
  // its epoch frees it here, so a client holding a response never sees
  // that epoch counted as retired.
  pinned.reset();
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i].ok()) {
      (*batch)[i].promise.set_value(std::move(responses[i]));
    } else {
      (*batch)[i].promise.set_value(statuses[i]);
    }
  }
}

void QueryServer::UpdaterLoop() {
  for (;;) {
    std::vector<PendingUpdate> batch;
    bool build_landmarks = false;
    {
      MutexLock lock(&update_mu_);
      while (!update_stopping_ && update_queue_.empty() && !landmarks_due_) {
        update_cv_.Wait(&update_mu_);
      }
      // Stopping with nothing queued: done, a pending landmark build
      // with it — nothing would serve from its epoch.
      if (update_stopping_ && update_queue_.empty()) return;
      build_landmarks = std::exchange(landmarks_due_, false);
      batch.reserve(update_queue_.size());
      while (!update_queue_.empty()) {
        batch.push_back(std::move(update_queue_.front()));
        update_queue_.pop_front();
      }
    }
    if (!batch.empty()) ApplyBatch(&batch);
    // After the batch, so the tables describe the newest base.
    if (build_landmarks) PublishLandmarks();
  }
}

void QueryServer::ApplyBatch(std::vector<PendingUpdate>* batch) {
  // Apply every queued mutation, then publish once: bursts of updates
  // coalesce into a single epoch swap. With a WAL configured each
  // mutation is appended to the log *before* it touches the live world
  // — the recovery invariant is "everything applied is in the log". The
  // log is not synced, so that holds across a process crash, not an OS
  // crash or a power cut.
  uint64_t max_seq = 0;
  bool mutated = false;
  uint64_t logged = 0;
  for (PendingUpdate& pu : *batch) {
    max_seq = pu.seq;
    if (wal_ != nullptr) {
      Status durable = wal_->Append(pu.update);
      if (wal_->broken()) wal_broken_.store(true, std::memory_order_relaxed);
      if (!durable.ok()) {
        // Not logged → not applied. The caller sees the storage error;
        // the server keeps serving (degraded when the log is broken)
        // but refuses to advance the world past the log.
        pu.promise.set_value(std::move(durable));
        continue;
      }
      ++logged;
    }
    Status applied = world_->Apply(pu.update);
    if (applied.ok()) mutated = true;
    pu.promise.set_value(std::move(applied));
  }
  if (logged > 0) {
    MutexLock lock(&stats_mu_);
    wal_records_ += logged;
  }
  Status publish = Status::OK();
  if (mutated) {
    if (options_.chaos.publish_failure_prob > 0.0 &&
        chaos_publish_rng_.NextBernoulli(options_.chaos.publish_failure_prob)) {
      publish = Status::Internal("chaos: injected publish failure");
    } else {
      publish = PublishWorld();
    }
    if (publish.ok()) {
      consecutive_publish_failures_.store(0, std::memory_order_relaxed);
      MaybeCheckpoint();
    } else {
      // The epoch manager was not touched: queries keep serving the
      // last good epoch, and the world keeps the applied mutations to
      // ride along with the next successful publish.
      consecutive_publish_failures_.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(&stats_mu_);
      ++publish_failures_;
    }
  }
  {
    MutexLock lock(&update_mu_);
    published_seq_ = max_seq;
    // Record the outcome of every publish attempt — a success clears a
    // previous failure so Flush() stops reporting it once the world is
    // re-published. Rounds that publish nothing leave it untouched.
    if (mutated) last_publish_error_ = publish;
  }
  flush_cv_.NotifyAll();
}

void QueryServer::RequestLandmarks() {
  if (landmarks_requested_.load(std::memory_order_relaxed) ||
      landmarks_requested_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  {
    MutexLock lock(&update_mu_);
    landmarks_due_ = true;
  }
  update_cv_.NotifyOne();
}

void QueryServer::PublishLandmarks() {
  WallTimer timer;
  // The world's base graph is the served epoch's: a failed or injected
  // publish failure leaves both at the last good epoch.
  std::shared_ptr<const FrozenGraph> graph = world_->BuildLandmarks();
  if (graph == nullptr) return;
  epochs_.Republish(std::move(graph));
  const double ms = timer.ElapsedMillis();
  MutexLock lock(&stats_mu_);
  ++landmark_builds_;
  landmark_build_ms_ = ms;
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  {
    MutexLock lock(&stats_mu_);
    s.rejected = rejected_;
    s.completed = completed_;
    s.batches = batches_;
    s.replay_batches = replay_batches_;
    s.replay_mismatches = replay_mismatches_;
    s.deadline_expired = deadline_expired_;
    s.cancelled_traversals = cancelled_traversals_;
    s.wal_records = wal_records_;
    s.wal_recoveries = wal_recovered_;
    s.publish_failures = publish_failures_;
    s.publishes_full = publishes_full_;
    s.publishes_incremental = publishes_incremental_;
    s.reclusters_full = reclusters_full_;
    s.reclusters_incremental = reclusters_incremental_;
    s.landmark_builds = landmark_builds_;
    s.landmark_build_ms = landmark_build_ms_;
    s.landmark_repairs = landmark_repair_ms_.count();
    s.mean_landmark_repair_ms = landmark_repair_ms_.mean();
    s.checkpoints_written = checkpoints_written_;
    s.checkpoint_failures = checkpoint_failures_;
    s.mean_checkpoint_ms = checkpoint_ms_.mean();
    s.wal_recovered_from_checkpoint = wal_recovered_from_checkpoint_ ? 1 : 0;
    s.wal_checkpoint_covers = wal_checkpoint_covers_;
    s.mean_publish_full_ms = publish_full_ms_.mean();
    s.mean_publish_incremental_ms = publish_incremental_ms_.mean();
    s.mean_publish_points_ms = publish_points_ms_.mean();
    s.mean_publish_csr_ms = publish_csr_ms_.mean();
    s.mean_recluster_ms = recluster_ms_.mean();
    s.mean_queue_wait_ms = queue_wait_ms_.mean();
    s.max_queue_wait_ms = queue_wait_ms_.max();
    s.mean_batch_size = batch_size_.mean();
    s.max_batch_size = batch_size_.max();
    s.mean_batch_ms = batch_ms_.mean();
  }
  s.epochs_published = epochs_.epochs_published();
  s.epochs_drained = epochs_.epochs_drained();
  s.retired_epochs = epochs_.retired_count();
  {
    // After the stats section: every request counted completed above was
    // accepted first, so a snapshot never reads completed > accepted.
    MutexLock lock(&queue_mu_);
    s.accepted = accepted_;
    s.worker_parks = worker_parks_;
    s.worker_wakes = worker_wakes_;
    s.parked_workers = idle_workers_;
    s.queue_depth = queue_.size();
  }
  return s;
}

std::vector<double> QueryServer::QueueWaitSamplesMs() const {
  MutexLock lock(&stats_mu_);
  return wait_ring_;
}

}  // namespace netclus
