// Fixed-size worker pool for deterministic parallel harnesses.
//
// The multistart regimes of Sec. 3.2 run hundreds of *independent* FM
// starts; the pool lets those starts execute concurrently while the
// harness keeps results bit-identical to the serial schedule (start i is
// a pure function of base_rng.fork(i), so only the *assignment* of
// starts to threads varies with the thread count, never the outcome).
//
// parallel_for_dynamic hands out indices 0..n-1 from a shared atomic
// counter ("dynamic" / work-stealing-style scheduling), which keeps all
// workers busy even when per-index runtimes vary wildly (pruned starts
// vs full refinements).  The two-argument form also passes a stable
// worker slot id in [0, num_threads) so callers can maintain per-worker
// scratch (e.g. a private partitioning engine) without locking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vlsipart {

/// CPUs this process may run on: the sched_getaffinity mask, falling
/// back to std::thread::hardware_concurrency(); always >= 1.
std::size_t usable_cpus();

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueue one task.  Tasks run in FIFO order across idle workers.
  /// Tasks must not throw — an escaping exception terminates the process
  /// (parallel_for_dynamic captures and rethrows for you).
  void submit(std::function<void()> task);

  /// Like submit(), but the task receives the stable worker slot id in
  /// [0, num_threads()) it executes on.  Two tasks observing the same
  /// slot never overlap, so per-slot scratch (e.g. a resident
  /// partitioning engine in the service layer) needs no locking.
  void submit_with_slot(std::function<void(std::size_t worker)> task);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Run body(worker, index) for every index in [0, n), distributing
  /// indices dynamically over the workers.  `worker` is a stable slot id
  /// in [0, num_threads()): two invocations of `body` with the same slot
  /// never overlap, so per-slot scratch needs no synchronization.
  /// Blocks until all indices are done.  If any invocation throws, the
  /// remaining indices are abandoned and the first captured exception is
  /// rethrown here.
  void parallel_for_dynamic(
      std::size_t n,
      const std::function<void(std::size_t worker, std::size_t index)>& body);

  /// Convenience form without the worker slot id.
  void parallel_for_dynamic(std::size_t n,
                            const std::function<void(std::size_t index)>& body);

 private:
  void worker_loop(std::size_t slot);

  std::vector<std::thread> workers_;
  std::deque<std::function<void(std::size_t)>> queue_;  // guarded_by(mutex_)
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;  // guarded_by(mutex_)
  bool stop_ = false;       // guarded_by(mutex_)
};

}  // namespace vlsipart
