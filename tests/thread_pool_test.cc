// Tests for the shared execution layer: ThreadPool / ParallelFor
// semantics (coverage, worker-id bounds, exception propagation, inline
// serial path) and per-worker workspaces addressed by worker id.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "graph/dijkstra.h"

namespace netclus {
namespace {

TEST(ThreadPoolTest, ResolveNumThreadsClampsToAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(4), 4u);
}

TEST(ThreadPoolTest, StartupShutdownCycles) {
  // Pools must come up and tear down cleanly even when never used, and
  // repeatedly.
  for (int cycle = 0; cycle < 8; ++cycle) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
  }
  ThreadPool clamped(0);
  EXPECT_GE(clamped.size(), 1u);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](size_t, uint32_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleItemRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  size_t seen_index = 99;
  pool.ParallelFor(1, [&](size_t i, uint32_t worker) {
    calls.fetch_add(1);
    seen_index = i;
    EXPECT_LT(worker, pool.size());
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_index, 0u);
}

TEST(ThreadPoolTest, OddRangeCoversEveryIndexExactlyOnce) {
  // n not divisible by the worker count: every index still runs exactly
  // once, and every reported worker id is in range.
  ThreadPool pool(4);
  const size_t n = 103;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> worker_ok{true};
  pool.ParallelFor(n, [&](size_t i, uint32_t worker) {
    hits[i].fetch_add(1);
    if (worker >= pool.size()) worker_ok.store(false);
  });
  EXPECT_TRUE(worker_ok.load());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, PerIndexOutputSlotsNeedNoSynchronization) {
  // The determinism contract's write pattern: each body writes only its
  // own slot, so a plain vector is safe and the result is order-free.
  ThreadPool pool(3);
  const size_t n = 50;
  std::vector<size_t> out(n, 0);
  pool.ParallelFor(n, [&](size_t i, uint32_t) { out[i] = i * i; });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(20,
                       [&](size_t i, uint32_t) {
                         if (i == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a throwing loop and run subsequent loops fully.
  std::atomic<int> calls{0};
  pool.ParallelFor(10, [&](size_t, uint32_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPoolTest, FirstExceptionWinsWhenSeveralThrow) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(16, [&](size_t i, uint32_t) {
      throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("item "), std::string::npos);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(17, [&](size_t, uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 20u * 17u);
}

TEST(ThreadPoolTest, FreeFunctionNullPoolRunsInlineInOrder) {
  // The serial reference path: worker id 0, strictly ascending order on
  // the calling thread.
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i, uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, FreeFunctionSingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  ParallelFor(&pool, 4, [&](size_t i, uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, FreeFunctionNullPoolPropagatesExceptions) {
  EXPECT_THROW(ParallelFor(nullptr, 3,
                           [&](size_t i, uint32_t) {
                             if (i == 1) throw std::runtime_error("inline");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PerWorkerWorkspacesShareNothing) {
  // The usage pattern from DBSCAN: one workspace per worker, addressed
  // by the worker id ParallelFor reports.
  ThreadPool exec(4);
  std::vector<TraversalWorkspace> workspaces;
  workspaces.reserve(exec.size());
  for (uint32_t w = 0; w < exec.size(); ++w) workspaces.emplace_back(64);
  std::vector<int> out(200, -1);
  exec.ParallelFor(out.size(), [&](size_t i, uint32_t worker) {
    TraversalWorkspace* ws = &workspaces[worker];
    ws->settled.clear();
    ws->settled.emplace_back(static_cast<NodeId>(i % 64), 1.0);
    out[i] = static_cast<int>(ws->settled.size());
  });
  for (int v : out) EXPECT_EQ(v, 1);
}

}  // namespace
}  // namespace netclus
