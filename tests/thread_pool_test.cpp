// Tests for the fixed-size worker pool behind parallel multistart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace vlsipart {
namespace {

TEST(ThreadPool, UsableCpusWithinHardware) {
  const std::size_t n = usable_cpus();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for_dynamic(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  // Far more tasks than threads: dynamic scheduling must still cover
  // [0, n) without duplication or loss.
  ThreadPool pool(3);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_dynamic(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WorkerSlotsAreExclusive) {
  // The two-argument form promises non-overlapping invocations per slot,
  // so unsynchronized per-slot counters must add up exactly.
  ThreadPool pool(4);
  constexpr std::size_t n = 500;
  std::vector<std::size_t> per_slot(pool.num_threads(), 0);
  pool.parallel_for_dynamic(n, [&](std::size_t worker, std::size_t) {
    ASSERT_LT(worker, per_slot.size());
    ++per_slot[worker];
  });
  std::size_t total = 0;
  for (const std::size_t c : per_slot) total += c;
  EXPECT_EQ(total, n);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_dynamic(100,
                                [&](std::size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> calls{0};
  pool.parallel_for_dynamic(10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, ExceptionAbandonsRemainingIndices) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  try {
    pool.parallel_for_dynamic(100000, [&](std::size_t i) {
      ++calls;
      if (i < 2) throw std::runtime_error("early");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(calls.load(), 100000);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&done] { ++done; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> calls{0};
  pool.parallel_for_dynamic(5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 5);
}

}  // namespace
}  // namespace vlsipart
