// vpartd wire protocol: request/response schema over JSON frames.
//
// Ops (every request is one JSON object with an "op" member):
//   submit   enqueue a partition request; returns a job id immediately.
//   status   poll a job's state (queued/running/done/failed/expired).
//   result   fetch a job's result, optionally blocking until terminal.
//            Its run_s is the job's wall time on its worker, and run_cpu_s
//            the worker thread's CPU only: the CPU of helper threads
//            spending the job's thread budget is not counted.
//   stats    service observability snapshot (queue depth, cache hit
//            rates, latency percentiles).
//   shutdown initiate graceful drain (finish in-flight, reject new).
//
// Determinism contract: a job's result is a pure function of the submit
// body — instance spec, k, tolerance, engine, starts, vcycles, seed —
// and never of server load, worker count, batching or cache state.  The
// engines guarantee this (bit-identical multistart, DESIGN.md
// "Threading model"); the service preserves it by running every job on
// exactly one worker.  No daemon setting reaches the engines, so answers
// also agree across restarts.  That contract is also what makes the
// result cache sound: a repeated request may be answered from cache
// because recomputing it could not produce anything else.
#pragma once

#include <cstdint>
#include <string>

#include "src/part/evo/evo_partitioner.h"
#include "src/service/json.h"

namespace vlsipart::service {

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kExpired,
};
const char* job_state_name(JobState state);
bool job_state_terminal(JobState state);

/// What to partition.  Exactly one source must be set: a synthetic
/// generator preset (with scale and optional generator-seed override),
/// an hMetis .hgr file, or an ISPD98 .netD/.are pair prefix.
struct InstanceSpec {
  std::string preset;
  double scale = 0.5;
  std::uint64_t gen_seed = 0;  // 0 = the preset's own default seed
  std::string hgr_path;
  std::string ispd98_path;

  /// Canonical descriptor used as the instance-cache lookup key, e.g.
  /// "preset:ibm01@0.5#0" or "hgr:/path/circuit.hgr".
  std::string descriptor() const;
  bool validate(std::string* error) const;
  bool operator==(const InstanceSpec&) const = default;
};

struct SubmitRequest {
  InstanceSpec instance;
  std::size_t k = 2;
  double tolerance = 0.02;
  std::string engine = "ml";  // a name from engine_registry()
  std::size_t starts = 4;
  std::size_t vcycles = 1;    // k == 2, ml engine only
  /// Memetic knobs (evo engine only; ignored — but still part of the
  /// result-cache key — for every other engine).
  std::size_t population = EvoConfig{}.population;
  std::size_t generations = EvoConfig{}.generations;
  std::uint64_t seed = 1;
  /// Admission-to-start budget in ms; a job still queued when it expires
  /// is answered with state "expired" instead of running.  0 = none.
  std::int64_t deadline_ms = 0;
  bool include_parts = false;
  /// Clients may opt out of the result cache (bench cold paths); the
  /// instance cache still applies.
  bool use_result_cache = true;
  bool operator==(const SubmitRequest&) const = default;
};

/// Parse + validate the body of a submit request.  Returns false and
/// sets *error on a malformed or out-of-range request.
bool parse_submit(const JsonValue& request, SubmitRequest& out,
                  std::string* error);

/// Client-side serializer (inverse of parse_submit).
JsonValue submit_to_json(const SubmitRequest& request);

/// Result-cache key: hash of the canonical submit_to_json body without
/// `instance`, `include_parts`, `deadline_ms` and `use_result_cache`,
/// plus the *content* hash of the resolved instance (so two descriptors
/// that build identical hypergraphs share cached results).  Every other
/// member is in the key by construction.
std::uint64_t result_cache_key(const SubmitRequest& request,
                               std::uint64_t instance_content_hash);

JsonValue make_error(const std::string& code, const std::string& message);

}  // namespace vlsipart::service
