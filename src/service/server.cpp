#include "src/service/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "src/part/engine.h"
#include "src/util/shutdown.h"
#include "src/util/timer.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace vlsipart::service {

// Wall-clock readings in this file (deadlines, idle timeouts, the stats
// log cadence) control *when* work is refused or reported, never *what*
// any partitioning run computes — results stay pure functions of the
// request.  det-lint: allow(wall-clock)
using ServiceClock = std::chrono::steady_clock;

struct PartitionService::Job {
  std::uint64_t id = 0;
  SubmitRequest request;
  JobState state = JobState::kQueued;
  std::string error;
  Weight cut = 0;
  std::vector<PartId> parts;
  std::string cache = "none";  // result | instance | none
  ServiceClock::time_point admitted_at;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;      // worker wall time on this job
  double run_cpu_seconds = 0.0;  // worker thread-CPU on this job
};

struct PartitionService::Connection {
  Socket sock;
  std::thread thread;
  std::atomic<bool> busy{false};  // between frame-complete and response
  /// Jobs submitted on this connection whose terminal result has not yet
  /// been fetched here.  Graceful drain keeps the connection open (up to
  /// drain_grace_ms) while this is positive, so a client that submitted
  /// right before SIGTERM can still collect its answer.
  std::atomic<int> undelivered{0};
  std::atomic<bool> done{false};
};

namespace {

/// The run a job asks for, plus the per-job thread budget.
/// run_engine() builds the engine per job; the answer is a pure function
/// of the request at any budget (ServiceDeterminism tests), so the
/// budget stays out of the cache key.
EngineSpec job_spec(const SubmitRequest& req, std::size_t job_threads) {
  EngineSpec spec;
  spec.threads = job_threads;
  spec.engine = req.engine;
  spec.k = req.k;
  spec.tolerance = req.tolerance;
  spec.starts = req.starts;
  spec.vcycles = req.vcycles;
  spec.seed = req.seed;
  spec.evo.population = req.population;
  spec.evo.generations = req.generations;
  return spec;
}

/// Give the pages a finished run freed back to the OS.  Each helper
/// thread of a job allocates from its own glibc malloc arena, and arenas
/// keep freed pages, so without this the daemon's resident memory grows
/// with the number of threads that have ever run a job.
void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::int64_t elapsed_ms(ServiceClock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             ServiceClock::now() - since)  // det-lint: allow(wall-clock)
      .count();
}

}  // namespace

PartitionService::PartitionService(ServiceConfig config)
    : config_(std::move(config)),
      instances_(config_.instance_cache_capacity),
      results_(config_.result_cache_capacity) {
  if (config_.workers == 0) config_.workers = 1;
}

PartitionService::~PartitionService() { stop(); }

void PartitionService::start() {
  if (started_.exchange(true)) return;
  listener_ = listen_endpoint(config_.endpoint);
  bound_ = config_.endpoint;
  if (!bound_.is_unix()) bound_.tcp_port = bound_tcp_port(listener_);

  // The CPUs left idle by `workers` one-job-at-a-time workers, shared out
  // as one thread budget per job.
  job_threads_ = std::max<std::size_t>(1, usable_cpus() / config_.workers);
  pool_ = std::make_unique<ThreadPool>(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    pool_->submit_with_slot([this](std::size_t slot) { worker_driver(slot); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (config_.verbose) {
    std::fprintf(stderr,
                 "vpartd: listening on %s (%zu workers, %zu threads per job)\n",
                 bound_.describe().c_str(), config_.workers, job_threads_);
  }
}

Endpoint PartitionService::bound_endpoint() const { return bound_; }

void PartitionService::serve_until_shutdown() {
  // det-lint: allow(wall-clock)
  ServiceClock::time_point last_log = ServiceClock::now();
  while (!shutdown_requested()) {
    struct pollfd pfd = {};
    pfd.fd = shutdown_fd();
    pfd.events = POLLIN;
    ::poll(&pfd, 1, 200);
    if (config_.stats_log_interval_s > 0.0 &&
        static_cast<double>(elapsed_ms(last_log)) >=
            config_.stats_log_interval_s * 1000.0) {
      std::fprintf(stderr, "%s\n",
                   metrics_.log_line(queue_depth(), in_flight()).c_str());
      last_log = ServiceClock::now();  // det-lint: allow(wall-clock)
    }
  }
  if (config_.verbose) {
    std::fprintf(stderr, "vpartd: shutdown requested, draining\n");
  }
  stop();
}

void PartitionService::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  draining_.store(true);

  // 1. Every admitted job runs to completion (deadline-expired jobs are
  //    completed by being marked expired at pickup).
  {
    std::unique_lock<std::mutex> lock(jobs_mutex_);
    jobs_cv_.wait(lock, [this] { return admitted_ == 0; });
    workers_stop_ = true;
  }
  jobs_cv_.notify_all();
  pool_->wait_idle();

  // 2. Stop accepting; wake the accept poll.
  accept_stop_.store(true);
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (bound_.is_unix()) ::unlink(bound_.unix_path.c_str());

  // 3. Give connection threads mid-response a bounded grace to flush,
  //    then close the sockets under them and join.
  // det-lint: allow(wall-clock)
  const ServiceClock::time_point grace_start = ServiceClock::now();
  while (elapsed_ms(grace_start) < config_.drain_grace_ms) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      for (const auto& conn : conns_) {
        if (conn->done.load()) continue;
        if (conn->busy.load() || conn->undelivered.load() > 0) busy = true;
      }
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  conns_close_.store(true);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) conn->sock.shutdown_both();
  }
  jobs_cv_.notify_all();  // wake result-waiters so they observe close
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }
  if (config_.verbose) {
    std::fprintf(stderr, "vpartd: drained; %s\n",
                 metrics_.log_line(0, 0).c_str());
  }
}

std::size_t PartitionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return queue_.size();
}

std::size_t PartitionService::in_flight() const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  return admitted_;
}

void PartitionService::accept_loop() {
  while (!accept_stop_.load()) {
    Socket client = accept_client(listener_, 200);
    if (!client.valid()) continue;
    metrics_.count_accepted();
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(client);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      // Reap finished connections so a long-lived server does not grow
      // a thread list proportional to total clients served.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
  }
}

void PartitionService::connection_loop(Connection* conn) {
  FrameReader reader(conn->sock.fd(), config_.max_payload);
  // det-lint: allow(wall-clock)
  ServiceClock::time_point last_activity = ServiceClock::now();
  while (!conns_close_.load()) {
    const FrameStatus status = reader.poll_once(100);
    if (status == FrameStatus::kAgain) {
      if (conns_close_.load()) break;
      const std::int64_t idle = elapsed_ms(last_activity);
      if (config_.idle_timeout_ms > 0 && !reader.mid_frame() &&
          idle >= config_.idle_timeout_ms) {
        if (config_.verbose) {
          std::fprintf(stderr, "vpartd: closing idle connection\n");
        }
        break;
      }
      // A peer stalled mid-frame gets the same budget; without this a
      // client that sends half a header and sleeps would pin the
      // connection forever.
      if (config_.idle_timeout_ms > 0 && reader.mid_frame() &&
          idle >= config_.idle_timeout_ms) {
        metrics_.count_rejected();
        write_frame(conn->sock.fd(),
                    make_error("timeout", "frame not completed in time")
                        .dump());
        break;
      }
      continue;
    }
    if (status == FrameStatus::kOversized) {
      metrics_.count_rejected();
      write_frame(
          conn->sock.fd(),
          make_error("oversized", "frame exceeds payload cap").dump());
      break;
    }
    if (status != FrameStatus::kOk) {
      // kClosed (clean), kTruncated (mid-frame hangup), kIoError: no
      // peer left to answer; just drop the connection.
      break;
    }
    conn->busy.store(true);
    JsonValue request;
    JsonValue response;
    bool close_after = false;
    std::string parse_error;
    if (!parse_json(reader.payload(), request, &parse_error)) {
      metrics_.count_rejected();
      response = make_error("bad_json", parse_error);
    } else if (!request.is_object()) {
      metrics_.count_rejected();
      response = make_error("bad_request", "request must be an object");
    } else {
      response = handle_request(request, conn, &close_after);
    }
    const bool sent = write_frame(conn->sock.fd(), response.dump());
    conn->busy.store(false);
    reader.reset();
    if (!sent || close_after) break;
    last_activity = ServiceClock::now();  // det-lint: allow(wall-clock)
  }
  conn->sock.shutdown_both();
  conn->done.store(true);
}

JsonValue PartitionService::handle_request(const JsonValue& request,
                                           Connection* conn,
                                           bool* close_after) {
  metrics_.count_request();
  const std::string op =
      request.find("op") != nullptr ? request.find("op")->as_string() : "";
  if (op == "submit") return handle_submit(request, conn);
  if (op == "status") return handle_status(request);
  if (op == "result") return handle_result(request, conn);
  if (op == "stats") return handle_stats();
  if (op == "ping") {
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(true));
    return out;
  }
  if (op == "shutdown") {
    request_shutdown();
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(true));
    out.set("draining", JsonValue::boolean(true));
    return out;
  }
  metrics_.count_rejected();
  *close_after = false;
  return make_error("bad_op", "unknown op '" + op + "'");
}

JsonValue PartitionService::handle_submit(const JsonValue& request,
                                          Connection* conn) {
  if (draining_.load()) {
    metrics_.count_rejected();
    return make_error("draining", "service is shutting down");
  }
  auto job = std::make_shared<Job>();
  std::string error;
  if (!parse_submit(request, job->request, &error)) {
    metrics_.count_rejected();
    return make_error("bad_request", error);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (queue_.size() >= config_.queue_capacity) {
      metrics_.count_shed();
      return make_error("overloaded", "admission queue is full");
    }
    job->id = next_job_id_++;
    job->admitted_at = ServiceClock::now();  // det-lint: allow(wall-clock)
    jobs_.emplace(job->id, job);
    queue_.push_back(job);
    ++admitted_;
    prune_jobs_locked();
  }
  metrics_.count_submitted();
  if (conn != nullptr) conn->undelivered.fetch_add(1);
  jobs_cv_.notify_all();

  JsonValue out = JsonValue::object();
  out.set("ok", JsonValue::boolean(true));
  out.set("job", JsonValue::integer(static_cast<std::int64_t>(job->id)));
  out.set("state", JsonValue::string(job_state_name(JobState::kQueued)));
  return out;
}

std::shared_ptr<PartitionService::Job> PartitionService::find_job(
    std::int64_t id) {
  if (id <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(static_cast<std::uint64_t>(id));
  return it == jobs_.end() ? nullptr : it->second;
}

JsonValue PartitionService::handle_status(const JsonValue& request) {
  const JsonValue* id = request.find("job");
  std::shared_ptr<Job> job =
      id != nullptr ? find_job(id->as_int(-1)) : nullptr;
  if (job == nullptr) {
    metrics_.count_rejected();
    return make_error("not_found", "unknown job id");
  }
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  JsonValue out = JsonValue::object();
  out.set("ok", JsonValue::boolean(true));
  out.set("job", JsonValue::integer(static_cast<std::int64_t>(job->id)));
  out.set("state", JsonValue::string(job_state_name(job->state)));
  return out;
}

JsonValue PartitionService::job_response(const Job& job) const {
  // The job is terminal: the worker wrote its fields before publishing
  // the state under jobs_mutex_, and no thread writes them afterwards,
  // so the caller reads them without the lock.
  JsonValue out = JsonValue::object();
  out.set("ok", JsonValue::boolean(job.state == JobState::kDone));
  out.set("job", JsonValue::integer(static_cast<std::int64_t>(job.id)));
  out.set("state", JsonValue::string(job_state_name(job.state)));
  if (job.state == JobState::kDone) {
    out.set("cut", JsonValue::integer(job.cut));
    out.set("cache", JsonValue::string(job.cache));
    out.set("queue_wait_s", JsonValue::number(job.queue_wait_seconds));
    out.set("run_s", JsonValue::number(job.run_seconds));
    out.set("run_cpu_s", JsonValue::number(job.run_cpu_seconds));
    if (job.request.include_parts) {
      JsonValue parts = JsonValue::array();
      for (const PartId p : job.parts) {
        parts.push(JsonValue::integer(p));
      }
      out.set("parts", std::move(parts));
    }
  } else if (job.state == JobState::kFailed) {
    out.set("error", JsonValue::string("job_failed"));
    out.set("message", JsonValue::string(job.error));
  } else if (job.state == JobState::kExpired) {
    out.set("error", JsonValue::string("expired"));
    out.set("message",
            JsonValue::string("deadline elapsed before a worker started"));
  }
  return out;
}

JsonValue PartitionService::handle_result(const JsonValue& request,
                                          Connection* conn) {
  const JsonValue* id = request.find("job");
  std::shared_ptr<Job> job =
      id != nullptr ? find_job(id->as_int(-1)) : nullptr;
  if (job == nullptr) {
    metrics_.count_rejected();
    return make_error("not_found", "unknown job id");
  }
  const JsonValue* wait = request.find("wait");
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  if (wait != nullptr && wait->as_bool()) {
    // Slice the wait so connection close during drain is observed.
    while (!job_state_terminal(job->state) && !conns_close_.load()) {
      jobs_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
  }
  if (job_state_terminal(job->state) && conn != nullptr) {
    // This connection no longer owes this delivery to the drain grace.
    int owed = conn->undelivered.load();
    while (owed > 0 &&
           !conn->undelivered.compare_exchange_weak(owed, owed - 1)) {
    }
  }
  if (!job_state_terminal(job->state)) {
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(false));
    out.set("job", JsonValue::integer(static_cast<std::int64_t>(job->id)));
    out.set("state", JsonValue::string(job_state_name(job->state)));
    out.set("error", JsonValue::string("not_ready"));
    return out;
  }
  // Serializing a large parts array must not hold up the workers'
  // dequeue.
  lock.unlock();
  return job_response(*job);
}

JsonValue PartitionService::handle_stats() {
  JsonValue out = metrics_.to_json();
  out.set("ok", JsonValue::boolean(true));
  out.set("workers",
          JsonValue::integer(static_cast<std::int64_t>(config_.workers)));
  out.set("job_threads",
          JsonValue::integer(static_cast<std::int64_t>(job_threads_)));
  out.set("queue_depth",
          JsonValue::integer(static_cast<std::int64_t>(queue_depth())));
  out.set("in_flight",
          JsonValue::integer(static_cast<std::int64_t>(in_flight())));
  out.set("draining", JsonValue::boolean(draining_.load()));
  out.set("instances_resident",
          JsonValue::integer(static_cast<std::int64_t>(instances_.resident())));
  out.set("results_resident",
          JsonValue::integer(static_cast<std::int64_t>(results_.resident())));
  return out;
}

void PartitionService::finish_job(const std::shared_ptr<Job>& job,
                                  JobState state) {
  // Count the job before publishing its state: a client that sees the
  // result and then asks for stats must find the job counted.
  const double latency =
      static_cast<double>(elapsed_ms(job->admitted_at)) / 1000.0;
  switch (state) {
    case JobState::kDone:
      metrics_.count_completed(job->queue_wait_seconds, latency);
      break;
    case JobState::kFailed:
      metrics_.count_failed(latency);
      break;
    case JobState::kExpired:
      metrics_.count_expired(latency);
      break;
    default:
      break;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    job->state = state;
    --admitted_;
  }
  jobs_cv_.notify_all();
}

void PartitionService::worker_driver(std::size_t slot) {
  (void)slot;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock,
                    [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // workers_stop_ && drained
      job = queue_.front();
      queue_.pop_front();
      job->state = JobState::kRunning;
      job->queue_wait_seconds =
          static_cast<double>(elapsed_ms(job->admitted_at)) / 1000.0;
    }
    if (job->request.deadline_ms > 0 &&
        elapsed_ms(job->admitted_at) > job->request.deadline_ms) {
      finish_job(job, JobState::kExpired);
      continue;
    }
    try {
      bool instance_hit = false;
      const std::shared_ptr<const CachedInstance> instance =
          instances_.get(job->request.instance, &instance_hit);
      if (instance_hit) metrics_.count_instance_cache_hit();
      const std::uint64_t key =
          result_cache_key(job->request, instance->content_hash);
      std::shared_ptr<const CachedResult> cached;
      if (job->request.use_result_cache) cached = results_.find(key);
      const WallTimer run_timer;
      const ThreadCpuTimer cpu_timer;
      if (cached != nullptr) {
        metrics_.count_result_cache_hit();
        job->cut = cached->cut;
        job->parts = cached->parts;
        job->cache = "result";
      } else {
        EngineResult outcome = run_engine(
            job_spec(job->request, job_threads_), instance->graph);
        release_free_memory();
        if (!outcome.error.empty()) {
          job->error = outcome.error;
          job->run_seconds = run_timer.elapsed();
          finish_job(job, JobState::kFailed);
          continue;
        }
        job->cut = outcome.cut;
        job->parts = std::move(outcome.parts);
        job->cache = instance_hit ? "instance" : "none";
        CachedResult to_cache;
        to_cache.cut = job->cut;
        to_cache.parts = job->parts;
        results_.insert(key, std::move(to_cache));
      }
      job->run_seconds = run_timer.elapsed();
      job->run_cpu_seconds = cpu_timer.elapsed();
      finish_job(job, JobState::kDone);
    } catch (const std::exception& e) {
      job->error = e.what();
      finish_job(job, JobState::kFailed);
    } catch (...) {
      job->error = "unknown error";
      finish_job(job, JobState::kFailed);
    }
  }
}

void PartitionService::prune_jobs_locked() {
  // det-lint: holds(jobs_mutex_) — the _locked suffix is the contract.
  // Bound the registry: drop the oldest *terminal* jobs once the map
  // grows past 4096 entries (ids are monotone, so begin() is oldest).
  constexpr std::size_t kMaxJobs = 4096;
  auto it = jobs_.begin();
  while (jobs_.size() > kMaxJobs && it != jobs_.end()) {
    if (job_state_terminal(it->second->state)) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace vlsipart::service
