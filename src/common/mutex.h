// Annotated synchronization primitives: the only mutex vocabulary in
// netclus (scripts/lint.sh forbids raw std::mutex & friends anywhere
// else under src/).
//
// Two enforcement layers ride on these wrappers, the way
// [[nodiscard]] Status + netclus-lint prove error-handling discipline:
//
//   1. Compile time — the NETCLUS_* macros below expand to clang's
//      Thread Safety Analysis attributes, so `clang++ -Wthread-safety
//      -Werror` (the default clang configure; gated by
//      scripts/check_tsa.sh) rejects any access to NETCLUS_GUARDED_BY
//      state without its lock, any NETCLUS_REQUIRES callee reached from
//      an unlocked caller, and any double-acquire. Under gcc the macros
//      expand to nothing: zero cost, identical semantics.
//   2. Debug runtime — every Mutex carries a lock rank and a name. A
//      thread may only acquire a mutex whose rank is STRICTLY greater
//      than every rank it already holds (so same-rank reacquisition is
//      also rejected); any out-of-order acquisition — the building
//      block of every lock-cycle deadlock — trips NETCLUS_CHECK naming
//      both locks. The detector is on by default in debug and
//      NETCLUS_VALIDATE builds and off in release;
//      SetLockRankChecking() overrides (tests force it on).
//
// The full lock hierarchy — which subsystem's locks may be held while
// acquiring which others, and why — is documented in DESIGN.md §14;
// the lock_rank:: constants below are its machine-readable form.
//
// Wrapper bodies are NETCLUS_NO_THREAD_SAFETY_ANALYSIS: this file is
// the trusted base that translates annotated operations into
// std::mutex calls, so analyzing its internals against its own
// annotations would only produce noise (the same convention as
// abseil's Mutex).
#ifndef NETCLUS_COMMON_MUTEX_H_
#define NETCLUS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

// ---------------------------------------------------------------------
// Thread Safety Analysis attribute macros (clang only; empty elsewhere).
// ---------------------------------------------------------------------
#if defined(__clang__) && !defined(SWIG)
#define NETCLUS_TSA_ENABLED 1
#define NETCLUS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NETCLUS_TSA_ENABLED 0
#define NETCLUS_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define NETCLUS_CAPABILITY(x) NETCLUS_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define NETCLUS_SCOPED_CAPABILITY NETCLUS_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the named mutex.
#define NETCLUS_GUARDED_BY(x) NETCLUS_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose pointee is guarded by the named mutex.
#define NETCLUS_PT_GUARDED_BY(x) NETCLUS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function that may only be called with the listed mutexes held.
#define NETCLUS_REQUIRES(...) \
  NETCLUS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function that acquires the listed mutexes (or `this` capability when
/// the list is empty) and does not release them before returning.
#define NETCLUS_ACQUIRE(...) \
  NETCLUS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function that releases the listed mutexes (or `this` capability).
#define NETCLUS_RELEASE(...) \
  NETCLUS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function that acquires the capability only when returning `ret`.
#define NETCLUS_TRY_ACQUIRE(ret, ...) \
  NETCLUS_THREAD_ANNOTATION_(try_acquire_capability(ret, ##__VA_ARGS__))

/// Function that must NOT be called with the listed mutexes held (it
/// acquires them itself — the self-deadlock tripwire).
#define NETCLUS_EXCLUDES(...) \
  NETCLUS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the named mutex.
#define NETCLUS_RETURN_CAPABILITY(x) \
  NETCLUS_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Reserved for the
/// wrapper internals below; library code must not need it.
#define NETCLUS_NO_THREAD_SAFETY_ANALYSIS \
  NETCLUS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace netclus {

// ---------------------------------------------------------------------
// The lock hierarchy. Ranks strictly increase along every permitted
// acquisition chain; a thread holding rank r may only acquire ranks
// > r. Gaps are deliberate room for future subsystems (sharding,
// transport). Prose rationale: DESIGN.md §14.
// ---------------------------------------------------------------------
namespace lock_rank {
/// ThreadPool task queue. Held only to push/pop closures; never while
/// running one, so pool tasks may acquire anything.
inline constexpr int kThreadPoolQueue = 10;
/// Per-ParallelFor completion state (pending count + first error).
inline constexpr int kParallelForState = 20;
/// TcpServer connection table + transport counters. Below the query
/// admission queue so the front end could legally hold it across a
/// Submit (it doesn't today — the lock is never held across blocking
/// socket or queue operations — but the rank keeps that door open).
inline constexpr int kNetServer = 25;
/// QueryServer query admission queue.
inline constexpr int kQueryServerQueue = 30;
/// QueryServer mutation queue + flush bookkeeping.
inline constexpr int kQueryServerUpdate = 31;
/// EpochManager current-snapshot mutex (see DESIGN.md §14 for why it
/// sits above the serving queues and below the distance cache).
inline constexpr int kEpochManager = 40;
/// DistanceCache shard stripes (innermost lock of the query hot path).
inline constexpr int kDistanceCacheShard = 60;
/// DiskNetworkView sticky-status slot (leaf of the disk read path).
inline constexpr int kDiskViewStatus = 70;
/// QueryServer serving-statistics lock (inner to the admission queue:
/// Submit records rejections while still holding the queue lock).
inline constexpr int kServerStats = 90;
}  // namespace lock_rank

namespace lock_rank_internal {
/// Checks `rank` against the calling thread's held set and records the
/// acquisition. Trips NETCLUS_CHECK (naming both locks) on a rank that
/// is not strictly greater than everything held. No-op (no recording)
/// while checking is disabled.
void RankCheckAcquire(const void* mu, int rank, const char* name);
/// Forgets the most recent recorded acquisition of `mu` by this thread.
/// Always scans, even when checking is disabled, so toggling the
/// detector mid-hold cannot strand entries.
void RankCheckRelease(const void* mu);
}  // namespace lock_rank_internal

/// Enables/disables the runtime lock-rank detector process-wide and
/// returns the previous setting. Default: on when NETCLUS_DCHECK is on
/// (debug / NETCLUS_VALIDATE builds), off in plain release.
bool SetLockRankChecking(bool enabled);
bool LockRankCheckingEnabled();

/// Locks the calling thread currently holds according to the detector
/// (0 when checking is disabled). Test visibility only.
size_t HeldLockCountForTesting();

/// \brief Annotated exclusive mutex with a lock rank and a name.
///
/// Construction is allocation-free; `name` must outlive the mutex (use
/// a string literal). Not copyable or movable — guarded members refer
/// to it by address.
class NETCLUS_CAPABILITY("mutex") Mutex {
 public:
  /// Every Mutex picks its place in the global hierarchy (a lock_rank::
  /// constant — or any int in tests) and names itself for diagnostics.
  Mutex(int rank, const char* name) : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NETCLUS_ACQUIRE() NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    lock_rank_internal::RankCheckAcquire(this, rank_, name_);
    mu_.lock();
  }

  void Unlock() NETCLUS_RELEASE() NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    lock_rank_internal::RankCheckRelease(this);
    mu_.unlock();
  }

  /// Non-blocking acquire. A TryLock that would violate the rank order
  /// still trips the detector: a try-lock only avoids deadlocking
  /// itself, not the cycle it completes for everyone else.
  bool TryLock() NETCLUS_TRY_ACQUIRE(true) NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    lock_rank_internal::RankCheckAcquire(this, rank_, name_);
    if (mu_.try_lock()) return true;
    lock_rank_internal::RankCheckRelease(this);
    return false;
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// \brief RAII lock for a Mutex, with optional early release.
class NETCLUS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) NETCLUS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Early release; the destructor then does nothing. The relock
  /// counterpart is deliberately absent — re-acquisition through a
  /// scoped object hides a fresh rank check behind an innocent-looking
  /// call; take a new MutexLock instead.
  void Unlock() NETCLUS_RELEASE() NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    held_ = false;
    mu_->Unlock();
  }

  ~MutexLock() NETCLUS_RELEASE() {
    if (held_) mu_->Unlock();
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// \brief Condition variable paired with Mutex.
///
/// There is deliberately no predicate-lambda Wait overload: clang's
/// analysis cannot see a lock held across a lambda boundary, so wait
/// predicates are written as explicit `while (!cond) cv.Wait(&mu);`
/// loops in the annotated caller, where every guarded access is
/// visibly under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu` and blocks until notified (or a spurious
  /// wake); re-acquires `*mu` before returning. The rank detector keeps
  /// the mutex on the thread's held stack across the wait — the thread
  /// is blocked, and on wake it owns the lock again, so REQUIRES
  /// semantics hold throughout.
  void Wait(Mutex* mu) NETCLUS_REQUIRES(mu) NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// As Wait, but also returns once ~`seconds` elapse without a
  /// notification (callers re-check their predicate either way).
  void WaitFor(Mutex* mu, double seconds) NETCLUS_REQUIRES(mu)
      NETCLUS_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait_for(native, std::chrono::duration<double>(seconds));
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace netclus

#endif  // NETCLUS_COMMON_MUTEX_H_
