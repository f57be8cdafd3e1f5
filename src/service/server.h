// vpartd server: long-running partitioning service.
//
// Architecture (one process, four kinds of threads):
//   * accept thread     — poll()s the listener + shutdown pipe, spawns
//                         one connection thread per client;
//   * connection threads— frame/parse requests, enqueue jobs, answer
//                         status/result/stats, enforce idle timeouts and
//                         payload caps;
//   * worker drivers    — `workers` long-lived tasks on the shared
//                         ThreadPool (one per pool slot).  Each job runs
//                         through run_engine() (src/part/engine.h), which
//                         builds its engine per job and audits the answer
//                         (check_solution for k = 2, check_kway for k > 2).
//                         Each job gets the thread budget
//                         max(1, usable_cpus() / workers); run_engine
//                         spends it on the job's starts, evo offspring
//                         or RB subtrees, and answers do not depend on
//                         it;
//   * the caller's thread (serve_until_shutdown) — periodic stats log +
//                         shutdown latch.
//
// Admission control: a bounded queue.  A submit that would exceed
// queue_capacity is refused immediately with {"error":"overloaded"}
// (load shedding) rather than buffered without bound.  A job whose
// deadline_ms elapses while still queued is answered "expired" without
// running.
//
// Graceful drain (SIGTERM/SIGINT or {"op":"shutdown"}): new submits are
// refused with {"error":"draining"}, every already-admitted job runs to
// completion, waiting clients receive their results, then listener and
// connections close.  See stop().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/service/framing.h"
#include "src/service/instance_cache.h"
#include "src/service/metrics.h"
#include "src/service/protocol.h"
#include "src/util/thread_pool.h"

namespace vlsipart::service {

struct ServiceConfig {
  Endpoint endpoint;
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;
  std::size_t max_payload = 4u << 20;       // 4 MiB frame cap
  int idle_timeout_ms = 30000;              // silent client -> close
  int drain_grace_ms = 2000;                // response flush on stop()
  double stats_log_interval_s = 0.0;        // 0 = no periodic log line
  std::size_t instance_cache_capacity = 8;  // resident hypergraphs
  std::size_t result_cache_capacity = 256;
  bool verbose = false;                     // per-event log lines
};

class PartitionService {
 public:
  explicit PartitionService(ServiceConfig config);
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Bind the endpoint and start accept + worker threads.  Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void start();

  /// Endpoint actually bound (resolves tcp port 0 to the real port).
  Endpoint bound_endpoint() const;

  /// Block until shutdown_requested() (signal or {"op":"shutdown"}),
  /// emitting the periodic stats log line; then drain via stop().
  /// Requires install_shutdown_handler() to have been called.
  void serve_until_shutdown();

  /// Graceful drain; idempotent.  Refuse new submits, run every admitted
  /// job to completion, flush waiting responses, close everything.
  void stop();

  const ServiceMetrics& metrics() const { return metrics_; }
  /// Thread budget of each job (EngineSpec::threads), fixed at start():
  /// max(1, usable_cpus() / workers).
  std::size_t job_threads() const { return job_threads_; }
  std::size_t queue_depth() const;
  /// Jobs admitted but not yet terminal (queued + running).
  std::size_t in_flight() const;

 private:
  struct Job;
  struct Connection;

  void accept_loop();
  void connection_loop(Connection* conn);
  void worker_driver(std::size_t slot);

  /// Dispatch one parsed request; returns the response (always non-null
  /// JSON) and sets *close_after for protocol violations.
  JsonValue handle_request(const JsonValue& request, Connection* conn,
                           bool* close_after);
  JsonValue handle_submit(const JsonValue& request, Connection* conn);
  JsonValue handle_status(const JsonValue& request);
  JsonValue handle_result(const JsonValue& request, Connection* conn);
  JsonValue handle_stats();

  std::shared_ptr<Job> find_job(std::int64_t id);
  /// Result response of a terminal job, built without jobs_mutex_.
  JsonValue job_response(const Job& job) const;
  void finish_job(const std::shared_ptr<Job>& job, JobState state);
  void prune_jobs_locked();

  ServiceConfig config_;
  Socket listener_;
  Endpoint bound_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> accept_stop_{false};
  std::atomic<bool> conns_close_{false};

  std::thread accept_thread_;

  // Job queue + registry.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  // guarded_by(jobs_mutex_)
  std::deque<std::shared_ptr<Job>> queue_;              // guarded_by(jobs_mutex_)
  std::uint64_t next_job_id_ = 1;                       // guarded_by(jobs_mutex_)
  std::size_t admitted_ = 0;  // queued + running          guarded_by(jobs_mutex_)
  bool workers_stop_ = false;  // guarded_by(jobs_mutex_)

  std::unique_ptr<ThreadPool> pool_;
  std::size_t job_threads_ = 1;  // set once in start(), before any worker

  mutable std::mutex conns_mutex_;
  std::list<std::unique_ptr<Connection>> conns_;  // guarded_by(conns_mutex_)

  InstanceCache instances_;
  ResultCache results_;
  ServiceMetrics metrics_;
};

}  // namespace vlsipart::service
