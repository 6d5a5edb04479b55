// QueryServer: the long-lived clustering-as-a-service front end.
//
// One server owns a World (server/world.h: the live network, the points
// on it and their ObjectIds, touched only by its updater thread) and
// serves the unified query vocabulary (server/query.h) from immutable
// EpochSnapshots published RCU-style through an EpochManager:
//
//   clients ──Submit──> bounded queue <──drain── worker 1 … worker N
//                                                  │ each takes up to
//                                                  │ min(max_batch_size,
//                                                  │ ⌈depth / N⌉) requests
//                                                  ▼ pins current epoch once
//                                       serial execution on the worker's
//                                       own TraversalWorkspace (FrozenGraph
//                                       traversals, the epoch's DistanceCache
//                                       as a memo of exact distances)
//                                                  │
//                                                  ▼ optional replay validation
//                                       promises fulfilled, epoch id stamped
//
//   Workers drain in parallel, so no request waits behind a drain it is
//   not part of. A Submit takes only the queue lock: it counts the
//   request there and signals a parked worker only when one is parked
//   and no earlier signal is still on its way; a worker that leaves
//   requests queued behind its drain signals the next one itself. Each
//   worker keeps its drain's buffers from one drain to the next.
//
//   ApplyUpdate ──> updater thread: World::Apply, then World::Build
//                   the next PointSet + FrozenGraph (+ clustering when
//                   a cluster_spec is configured) and publish it. After
//                   the boot epoch every build is incremental: new
//                   points merge into the last build's PointSet,
//                   its CSR adjacency is shared until an edge is
//                   added (and rebuilt by the build after one), and
//                   an ε-Link spec's components merge only where the
//                   new mutations link them; the ObjectId-keyed
//                   DistanceCache is carried forward across publishes
//                   that leave the metric unchanged (point-only
//                   batches) and replaced fresh whenever edge weights
//                   change, so no drain can ever read a distance the
//                   current adjacency does not produce.
//
//   first distance ──> updater thread: World::BuildLandmarks, then the
//                   current epoch republished over the same graph
//                   carrying the tables (same epoch id, ids, clusters
//                   and cache); later builds carry them on. Nothing
//                   waits: until it lands, distances run the plain
//                   search, which gives the same bits (DESIGN.md §16).
//
// Admission control: when the queue holds max_queue_depth requests, a
// Submit is rejected immediately with kUnavailable carrying a
// structured retry-after hint (measured drain time when warm, a
// depth/worker model when cold). The contract is documented in
// DESIGN.md §12.
//
// Resilience (DESIGN.md §13): requests may carry deadlines — expired
// ones are shed at dequeue and in-flight traversals cooperatively cancel
// themselves once the deadline their TraversalCancel carries has passed;
// mutations are appended to a WAL (server/wal.h) before they apply, and
// Start replays the log after a process crash (the log is not synced,
// so an OS crash or power cut can lose its tail); a ServerHealth state machine (kHealthz probes bypass
// admission) reports degradation from publish failures, a broken WAL,
// or a sustained deadline-miss rate, while serving continues from the
// last good epoch.
//
// Identity contract: requests and responses speak durable ObjectIds
// (graph/types.h) — an id names the SAME object in every epoch that
// contains it, across publishes, restarts, and checkpoint recovery.
// The dense, epoch-relative PointIds the graph layer traverses on are
// an implementation detail confined behind each snapshot's IdentityMap
// (server/identity_map.h); node count is fixed at Start. Queries never
// touch the live network, so a served batch is a pure function of its
// pinned snapshot — which is what lets ValidateServedBatch replay it
// bit-identically.
#ifndef NETCLUS_SERVER_QUERY_SERVER_H_
#define NETCLUS_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stats.h"
#include "common/timer.h"
#include "graph/dijkstra.h"
#include "graph/network.h"
#include "netclus.h"
#include "server/epoch_manager.h"
#include "server/query.h"
#include "server/update.h"
#include "server/wal.h"
#include "storage/paged_file.h"

namespace netclus {

class World;

/// \brief Deterministic failure injection for the serving loop itself
/// (the chaos harness of DESIGN.md §13). All probabilities are per
/// decision and drawn from seeded streams, one per kind of decision (the
/// updater draws publish failures; workers draw stalls in drain order
/// under the queue lock), so a chaotic run replays bit-identically from
/// the same seed and drain sequence.
struct ChaosOptions {
  uint64_t seed = 0;
  /// Probability that an updater publish round fails (kInternal) without
  /// touching the epoch manager — exercising serve-last-good-epoch.
  double publish_failure_prob = 0.0;
  /// Probability that a drain stalls its worker for `worker_stall_ms`
  /// before executing — exercising deadline expiry under load.
  double worker_stall_prob = 0.0;
  double worker_stall_ms = 0.0;

  bool enabled() const {
    return publish_failure_prob > 0.0 || worker_stall_prob > 0.0;
  }
};

/// \brief Serving knobs.
struct QueryServerOptions {
  /// Worker threads draining the queue (0 = one per hardware core).
  uint32_t num_workers = 0;
  /// Admission bound: Submits beyond this many queued requests are
  /// rejected with kUnavailable (backpressure).
  size_t max_queue_depth = 1024;
  /// Most requests one worker drains at a time, all served under one
  /// epoch pin.
  size_t max_batch_size = 64;
  /// ObjectId-keyed point-pair distance cache: each snapshot carries a
  /// cache of this capacity, SHARED with its predecessor across
  /// metric-preserving publishes (warm entries survive) and replaced
  /// fresh whenever edge weights change; 0 disables caching. The cache
  /// keeps DistanceCache's default shard count.
  size_t cache_capacity = 1 << 16;
  /// Replay every served batch through the direct inline path and fail
  /// the batch kInternal on any payload divergence; also check every
  /// incremental publish (PointSet merge, shared CSR, ε-Link
  /// re-cluster) against a full rebuild and fail the publish on
  /// divergence. Forced on by -DNETCLUS_VALIDATE=ON builds.
  bool validate_replay = false;
  /// When set, every epoch carries a ClusterOutput of this spec,
  /// enabling kClusterMembership queries. The boot epoch runs
  /// RunClustering; later epochs re-run it, except that an ε-Link spec
  /// updates its components in place (the result is identical to a
  /// full run, which the publish oracle re-checks when validate_replay
  /// or the spec's `validate` is set).
  std::optional<ClusterSpec> cluster_spec;

  /// Durable mutation log (server/wal.h). When `wal_path` is non-empty
  /// the server opens (or creates) the log there, replays any existing
  /// records into the boot world before publishing epoch 1, and appends
  /// every accepted mutation before applying it. `wal_file` is the test
  /// hook: a borrowed PagedFile (e.g. a FaultInjectionFile) used instead
  /// of opening `wal_path`; it must outlive the server.
  std::string wal_path;
  PagedFile* wal_file = nullptr;

  /// Checkpoint/compaction cycle: once at least this many records sit
  /// in the WAL after a publish, the updater serializes the whole world
  /// into the alternating checkpoint slots (`<wal_path>.ckpt.a/.b`) and
  /// truncates the log, capping replay-at-boot to one checkpoint plus a
  /// short delta suffix. 0 disables checkpointing (the log grows
  /// without bound, exactly as before). `checkpoint_file_a/b` are the
  /// test hooks: borrowed slot files (e.g. FaultInjectionFiles) used
  /// instead of opening the paths; both must be set together and
  /// outlive the server.
  uint64_t wal_checkpoint_every = 0;
  PagedFile* checkpoint_file_a = nullptr;
  PagedFile* checkpoint_file_b = nullptr;

  /// Settles between cancellation polls for served traversals.
  uint32_t cancel_check_interval = kDefaultCancelCheckInterval;
  /// Health state machine: the deadline-outcome window size (0 disables
  /// miss-rate-driven degradation) and the miss fraction over a full
  /// window that flips the server to kDegraded.
  size_t health_window = 256;
  double degraded_miss_rate = 0.5;
  /// Consecutive publish failures that flip the server to kDegraded
  /// (0 disables); one success resets the count.
  uint32_t degraded_publish_failures = 3;

  ChaosOptions chaos;
};

/// \brief Aggregate serving counters (monotonic since Start).
struct ServerStats {
  uint64_t accepted = 0;   ///< requests admitted to the queue
  uint64_t rejected = 0;   ///< requests refused with kUnavailable
  uint64_t completed = 0;  ///< requests whose promise was fulfilled
  uint64_t batches = 0;    ///< worker drains executed
  /// Times a worker found the queue empty and parked on it, and times a
  /// parked worker was signalled to take work (by a Submit, or by a
  /// worker that left requests queued behind its drain).
  uint64_t worker_parks = 0;
  uint64_t worker_wakes = 0;
  uint64_t epochs_published = 0;
  uint64_t epochs_drained = 0;   ///< retired snapshots actually freed
  uint64_t retired_epochs = 0;   ///< retired, awaiting last reader
  uint64_t replay_batches = 0;   ///< drains replay-validated
  uint64_t replay_mismatches = 0;
  uint64_t deadline_expired = 0;  ///< requests shed at dequeue, past deadline
  uint64_t cancelled_traversals = 0;  ///< cancelled mid-execution
  uint64_t wal_records = 0;     ///< mutation records appended since Start
  uint64_t wal_recoveries = 0;  ///< records replayed from the WAL at Start
  uint64_t publish_failures = 0;  ///< failed publish rounds since Start
  uint64_t publishes_full = 0;  ///< epochs built by full materialization
  /// Epochs built onto the previous one: PointSet merged, CSR shared
  /// or (after an AddEdge) rebuilt.
  uint64_t publishes_incremental = 0;
  uint64_t reclusters_full = 0;  ///< epochs clustered by RunClustering
  /// Epochs whose ε-Link clustering merged only the new links.
  uint64_t reclusters_incremental = 0;
  /// Landmark tables built (at most one per server: once built they are
  /// carried across every later publish) and the build's wall time,
  /// republish included.
  uint64_t landmark_builds = 0;
  double landmark_build_ms = 0.0;
  /// Publishes whose added edges shortened a landmark label, so the
  /// tables were repaired into a copy rather than shared, and the mean
  /// wall time of such a publish's landmark stage.
  uint64_t landmark_repairs = 0;
  double mean_landmark_repair_ms = 0.0;
  uint64_t checkpoints_written = 0;  ///< completed checkpoint+truncate cycles
  uint64_t checkpoint_failures = 0;  ///< cycles that failed (write or trunc)
  /// Mean wall time of a completed cycle: the world's Checkpoint(), the
  /// slot write and the log truncation.
  double mean_checkpoint_ms = 0.0;
  /// 1 when Start rebuilt the boot world from a checkpoint (plus a log
  /// suffix) rather than from the caller-provided base world.
  uint64_t wal_recovered_from_checkpoint = 0;
  /// Global WAL sequence the newest durable checkpoint covers.
  uint64_t wal_checkpoint_covers = 0;
  size_t queue_depth = 0;  ///< requests waiting right now (gauge)
  /// Workers parked on the empty queue right now (gauge). The handoff
  /// tests wait on it to reach num_workers() before each burst, so that
  /// every burst must wake a worker; keep it while they do.
  size_t parked_workers = 0;
  double mean_queue_wait_ms = 0.0;
  double max_queue_wait_ms = 0.0;
  double mean_batch_size = 0.0;  ///< requests per drain
  double max_batch_size = 0.0;
  double mean_batch_ms = 0.0;    ///< wall time per drain
  double mean_publish_full_ms = 0.0;
  double mean_publish_incremental_ms = 0.0;
  /// Mean wall time of a publish's PointSet stage (build or merge, plus
  /// the epoch's identity map), full and incremental together.
  double mean_publish_points_ms = 0.0;
  /// Mean wall time of a publish's CSR stage (point ranges over a
  /// shared adjacency, or a full freeze), full and incremental together.
  /// Both stage means include the stage's oracle when validation is on.
  double mean_publish_csr_ms = 0.0;
  /// Mean wall time of one re-cluster, full and incremental together.
  double mean_recluster_ms = 0.0;
};

/// \brief What a kHealthz probe (or Healthz()) reports: the health
/// verdict plus the raw signals it was derived from.
struct HealthReport {
  ServerHealth health = ServerHealth::kServing;
  uint64_t epoch = 0;
  uint32_t consecutive_publish_failures = 0;
  /// Fraction of the recent outcome window that missed its deadline
  /// (0 when no deadlines are in use).
  double deadline_miss_rate = 0.0;
  bool wal_broken = false;
  size_t queue_depth = 0;
};

/// \brief The serving loop. Create with Start(), query with
/// Execute()/Submit(), mutate with ApplyUpdate(), stop with Stop() (or
/// destruction). All public methods are thread-safe.
class QueryServer {
 public:
  /// Takes ownership of the world, replays the mutation WAL into it
  /// when one is configured (a torn tail is truncated; a corrupt log
  /// middle fails Start with kCorruption — the server never boots a
  /// guessed world), publishes epoch 1 (running the initial clustering
  /// when `options.cluster_spec` is set — a failure there fails Start),
  /// and starts the worker and updater threads.
  static Result<std::unique_ptr<QueryServer>> Start(
      Network net, PointSet points, const QueryServerOptions& options);

  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues one request. The future resolves to the response (epoch
  /// and health stamped) or to the request's error; under backpressure
  /// it resolves immediately to kUnavailable carrying a structured
  /// retry-after hint (Status::retry_after_ms(), also echoed in the
  /// message). A request with deadline_ms set resolves to
  /// kDeadlineExceeded when its deadline passes before (shed at
  /// dequeue, costing no worker) or during (cooperatively cancelled)
  /// execution. kHealthz requests bypass admission control entirely and
  /// resolve immediately — they stay answerable under backpressure.
  std::future<Result<QueryResponse>> Submit(const QueryRequest& req);

  /// Blocking convenience: Submit + wait.
  Result<QueryResponse> Execute(const QueryRequest& req);

  /// Hands the mutation to the updater thread and blocks until it has
  /// been applied to the live world (validation errors come back here).
  /// Publication happens asynchronously — queued mutations coalesce
  /// into one epoch; use Flush() to wait for visibility.
  Status ApplyUpdate(const NetworkUpdate& update);

  /// As above without waiting for the apply.
  std::future<Status> SubmitUpdate(const NetworkUpdate& update);

  /// Blocks until every previously applied mutation is visible in the
  /// current epoch. Returns the last publish failure, if any (e.g. a
  /// re-clustering error); queries keep serving the previous epoch then.
  Status Flush();

  /// Drains in-flight queries and pending updates, publishes the final
  /// epoch, and joins all threads. Subsequent Submits are rejected with
  /// kUnavailable. Idempotent.
  void Stop();

  /// Epoch currently being served.
  uint64_t current_epoch() const { return epochs_.current_epoch(); }

  /// The server's condition right now (DESIGN.md §13): kDegraded when
  /// the WAL is broken, publishes keep failing, or the recent
  /// deadline-miss rate crossed the configured bar — the server still
  /// answers queries from the last good epoch in that state. Reads
  /// atomics only, so every drain can stamp it without a lock.
  ServerHealth CurrentHealth() const;

  /// CurrentHealth plus the raw signals (the kHealthz payload's richer
  /// in-process sibling).
  HealthReport Healthz() const;

  ServerStats stats() const;

  /// Queue-wait samples (ms) of the most recent requests (bounded ring;
  /// the raw material for client-side percentiles in the bench).
  std::vector<double> QueueWaitSamplesMs() const;

  uint32_t num_workers() const { return num_workers_; }

 private:
  struct PendingQuery {
    QueryRequest req;
    std::promise<Result<QueryResponse>> promise;
    double enqueue_seconds = 0.0;
    /// Absolute expiry; kNoDeadline when the request has none.
    TraversalCancel::Clock::time_point deadline = TraversalCancel::kNoDeadline;
  };
  struct PendingUpdate {
    NetworkUpdate update;
    std::promise<Status> promise;
    uint64_t seq = 0;
  };

  explicit QueryServer(const QueryServerOptions& options);

  /// Creates the boot world: the caller's (net, points), or — when the
  /// configured WAL has a durable checkpoint — the checkpoint's world,
  /// plus the uncovered log suffix replayed on top. Start only, before
  /// the first publish.
  Status BootWorld(Network net, const PointSet& points);

  /// Runs one checkpoint + log-truncate cycle when the WAL has
  /// accumulated options_.wal_checkpoint_every records. Failures are
  /// counted and skipped — the log simply keeps growing until a cycle
  /// succeeds. Updater thread only.
  void MaybeCheckpoint();

  /// Builds the world's next epoch (World::Build) and publishes it,
  /// counting the build in the publish statistics. A failed build
  /// leaves the epoch manager untouched. Updater thread (and Start)
  /// only.
  Status PublishWorld();

  /// One serving thread: sheds expired requests, takes a drain from the
  /// queue and serves it on its own workspace; returns once Stop has
  /// been called and the queue is empty.
  void WorkerLoop(NodeId num_nodes);
  void UpdaterLoop();
  /// Logs and applies one drained batch of mutations, publishes the
  /// result once, and resolves the batch. Updater thread only.
  void ApplyBatch(std::vector<PendingUpdate>* batch);
  /// Asks the updater, once per server, for landmark tables: called
  /// when a distance is served from an epoch without them. Cheap after
  /// the first call; never waits for the build.
  void RequestLandmarks();
  /// Builds the world's landmark tables and republishes the current
  /// epoch carrying them (EpochManager::Republish): same epoch id,
  /// answers and cache. Updater thread only.
  void PublishLandmarks();
  /// One worker's drain buffers, kept across its drains so a drain
  /// allocates none of them: the requests taken (`batch`), those shed
  /// past their deadline, and the batch's answers.
  struct DrainBuffers {
    std::vector<PendingQuery> batch;
    std::vector<PendingQuery> shed;
    std::vector<QueryResponse> responses;
    std::vector<Status> statuses;
  };

  /// Serves `buf->batch` on the calling worker: pins the current epoch
  /// once, stalls `stall_ms` (chaos), executes each request serially on
  /// `ws`, replay-validates, counts, then fulfils the promises.
  void ExecuteBatch(DrainBuffers* buf, double stall_ms,
                    TraversalWorkspace* ws);

  /// Claims the one wake allowed in flight for a parked worker: true
  /// (and counted) when a worker is parked and no wake is pending, and
  /// the caller must then NotifyOne once it has let go of the lock.
  bool ClaimWakeLocked() NETCLUS_REQUIRES(queue_mu_);

  /// Records one request outcome in the health window and refreshes the
  /// cached miss-rate verdict.
  void RecordOutcomeLocked(bool deadline_missed) NETCLUS_REQUIRES(stats_mu_);
  /// Miss fraction over the current window.
  double DeadlineMissRateLocked() const NETCLUS_REQUIRES(stats_mu_);

  const QueryServerOptions options_;
  WallTimer clock_;  ///< server-lifetime clock for queue-wait stamps

  /// The live (mutable) world — updater thread only after Start.
  std::unique_ptr<World> world_;

  // Durability: the mutation log and the alternating checkpoint slots
  // (updater thread only after Start; the owned files back them unless
  // the options_ test hooks were injected).
  std::unique_ptr<PagedFile> owned_wal_file_;
  std::unique_ptr<MutationWal> wal_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  /// Generation of the newest durable checkpoint (0 = none yet).
  uint64_t ckpt_generation_ = 0;

  EpochManager epochs_;
  const uint32_t num_workers_;

  // Query admission queue. Rank kQueryServerQueue: Submit's rejection
  // path records stats while still holding this lock, which is the only
  // reason it ranks below stats_mu_. The accept path takes only this
  // lock, so what it counts lives here.
  mutable Mutex queue_mu_{lock_rank::kQueryServerQueue,
                          "QueryServer::queue_mu_"};
  CondVar queue_cv_;
  std::deque<PendingQuery> queue_ NETCLUS_GUARDED_BY(queue_mu_);
  bool stopping_ NETCLUS_GUARDED_BY(queue_mu_) = false;
  uint64_t accepted_ NETCLUS_GUARDED_BY(queue_mu_) = 0;
  /// Workers waiting on queue_cv_ right now.
  uint32_t idle_workers_ NETCLUS_GUARDED_BY(queue_mu_) = 0;
  /// A NotifyOne is claimed and no worker has returned from its wait
  /// since: later Submits leave the signalling to the worker it wakes.
  bool wake_pending_ NETCLUS_GUARDED_BY(queue_mu_) = false;
  uint64_t worker_parks_ NETCLUS_GUARDED_BY(queue_mu_) = 0;
  uint64_t worker_wakes_ NETCLUS_GUARDED_BY(queue_mu_) = 0;
  /// Chaos stall stream: drawn once per drain, in drain order.
  Rng chaos_stall_rng_ NETCLUS_GUARDED_BY(queue_mu_);

  // Update queue + flush bookkeeping.
  mutable Mutex update_mu_{lock_rank::kQueryServerUpdate,
                           "QueryServer::update_mu_"};
  CondVar update_cv_;
  CondVar flush_cv_;
  std::deque<PendingUpdate> update_queue_ NETCLUS_GUARDED_BY(update_mu_);
  bool update_stopping_ NETCLUS_GUARDED_BY(update_mu_) = false;
  /// Last sequence handed out.
  uint64_t update_seq_ NETCLUS_GUARDED_BY(update_mu_) = 0;
  /// Last sequence visible in an epoch.
  uint64_t published_seq_ NETCLUS_GUARDED_BY(update_mu_) = 0;
  Status last_publish_error_ NETCLUS_GUARDED_BY(update_mu_) = Status::OK();
  /// A landmark build is asked for and not yet taken up by the updater.
  bool landmarks_due_ NETCLUS_GUARDED_BY(update_mu_) = false;
  /// Set by the first RequestLandmarks; later ones return at once.
  std::atomic<bool> landmarks_requested_{false};

  // Health signals readable from any thread without the stats lock.
  std::atomic<bool> stopping_flag_{false};
  std::atomic<bool> wal_broken_{false};
  std::atomic<uint32_t> consecutive_publish_failures_{0};
  /// The miss-rate verdict over the outcome window: enough samples and
  /// a rate at or above degraded_miss_rate. Stored by
  /// RecordOutcomeLocked, the only writer of the window.
  std::atomic<bool> miss_rate_degraded_{false};

  // Chaos: the updater's publish-failure stream, independent of the
  // workers' stall stream (chaos_stall_rng_), so neither perturbs the
  // other's sequence.
  Rng chaos_publish_rng_{0};

  // Serving statistics. Rank kServerStats: acquired from Submit's
  // rejection paths (the backpressure one while queue_mu_ is still
  // held), never on its accept path, and from workers and the updater
  // with nothing held; the innermost lock.
  mutable Mutex stats_mu_{lock_rank::kServerStats, "QueryServer::stats_mu_"};
  uint64_t rejected_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t completed_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t batches_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t replay_batches_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t replay_mismatches_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t deadline_expired_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t cancelled_traversals_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t wal_records_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  /// Fixed after Start.
  uint64_t wal_recovered_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t publish_failures_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t publishes_full_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t publishes_incremental_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t landmark_builds_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  double landmark_build_ms_ NETCLUS_GUARDED_BY(stats_mu_) = 0.0;
  RunningStats landmark_repair_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  uint64_t checkpoints_written_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t checkpoint_failures_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  /// Fixed after Start.
  bool wal_recovered_from_checkpoint_ NETCLUS_GUARDED_BY(stats_mu_) = false;
  uint64_t wal_checkpoint_covers_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  RunningStats publish_full_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats publish_incremental_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats publish_points_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats publish_csr_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats checkpoint_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  uint64_t reclusters_full_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  uint64_t reclusters_incremental_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  RunningStats recluster_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats queue_wait_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats batch_size_ NETCLUS_GUARDED_BY(stats_mu_);
  RunningStats batch_ms_ NETCLUS_GUARDED_BY(stats_mu_);
  /// Bounded queue-wait sample ring.
  std::vector<double> wait_ring_ NETCLUS_GUARDED_BY(stats_mu_);
  size_t wait_ring_next_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  /// Sliding deadline-outcome window (1 = missed); capacity
  /// options_.health_window.
  std::vector<char> outcome_ring_ NETCLUS_GUARDED_BY(stats_mu_);
  size_t outcome_next_ NETCLUS_GUARDED_BY(stats_mu_) = 0;
  bool outcome_full_ NETCLUS_GUARDED_BY(stats_mu_) = false;
  size_t outcome_misses_ NETCLUS_GUARDED_BY(stats_mu_) = 0;

  std::vector<std::thread> workers_;
  std::thread updater_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_QUERY_SERVER_H_
