// Content-addressed caches for the partitioning service.
//
// InstanceCache maps an InstanceSpec descriptor to a built Hypergraph.
// Builds are single-flight: the first request for a descriptor inserts a
// shared_future and builds outside the lock; concurrent requests for the
// same descriptor wait on that future instead of parsing/generating the
// instance again.  Entries are evicted LRU once more than `capacity`
// builds are resident.
//
// ResultCache maps a result_cache_key() hash to a finished (cut, parts)
// pair, shared with the jobs that answered with it.  This is sound only
// because results are deterministic functions of the request (see
// protocol.h): serving from cache is observationally identical to
// recomputing.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/hypergraph/types.h"
#include "src/service/protocol.h"

namespace vlsipart::service {

/// Order-dependent structural hash of a hypergraph: counts, weights and
/// both CSR incidence arrays.  Two graphs with equal hashes are treated
/// as identical content for result-cache purposes.
std::uint64_t hypergraph_content_hash(const Hypergraph& h);

struct CachedInstance {
  Hypergraph graph;
  std::uint64_t content_hash = 0;
  double build_seconds = 0.0;
};

class InstanceCache {
 public:
  explicit InstanceCache(std::size_t capacity) : capacity_(capacity) {}

  /// Resolve a spec to a built instance, building it at most once per
  /// descriptor.  `hit` reports whether this call reused a resident (or
  /// in-flight) build.  Throws whatever the build throws (bad path,
  /// unknown preset); a failed build is forgotten so a later request can
  /// retry.
  std::shared_ptr<const CachedInstance> get(const InstanceSpec& spec,
                                            bool* hit);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t resident() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const CachedInstance>> future;
    std::uint64_t last_use = 0;
    bool ready = false;
  };

  void evict_locked();

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // guarded_by(mutex_)
  std::uint64_t use_counter_ = 0;         // guarded_by(mutex_)
  std::uint64_t hits_ = 0;                // guarded_by(mutex_)
  std::uint64_t misses_ = 0;              // guarded_by(mutex_)
};

struct CachedResult {
  Weight cut = 0;
  std::vector<PartId> parts;
};

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached result for `key`, or nullptr on miss.
  std::shared_ptr<const CachedResult> find(std::uint64_t key);
  /// Stores `result`, which the caller may keep sharing: a job and the
  /// cache hold one answer, and an evicted answer lives on in its jobs.
  void insert(std::uint64_t key, std::shared_ptr<const CachedResult> result);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t resident() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedResult> result;
    std::uint64_t last_use = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Entry> entries_;  // guarded_by(mutex_)
  std::uint64_t use_counter_ = 0;           // guarded_by(mutex_)
  std::uint64_t hits_ = 0;                  // guarded_by(mutex_)
  std::uint64_t misses_ = 0;                // guarded_by(mutex_)
};

}  // namespace vlsipart::service
