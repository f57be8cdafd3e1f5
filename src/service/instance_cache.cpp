#include "src/service/instance_cache.h"

#include "src/gen/netlist_gen.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/service/hash.h"
#include "src/util/timer.h"

namespace vlsipart::service {

std::uint64_t hypergraph_content_hash(const Hypergraph& h) {
  std::uint64_t hash = fnv1a64_value<std::uint64_t>(h.num_vertices());
  hash = fnv1a64_value<std::uint64_t>(h.num_edges(), hash);
  hash = fnv1a64_value<std::uint64_t>(h.num_pins(), hash);
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    hash = fnv1a64_value(h.vertex_weight(v), hash);
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    hash = fnv1a64_value(h.edge_weight(e), hash);
    const auto pins = h.pins(e);
    hash = fnv1a64(pins.data(), pins.size() * sizeof(VertexId), hash);
  }
  return hash;
}

namespace {

std::shared_ptr<const CachedInstance> build_instance(
    const InstanceSpec& spec) {
  auto built = std::make_shared<CachedInstance>();
  const WallTimer timer;
  if (!spec.hgr_path.empty()) {
    built->graph = read_hmetis_file(spec.hgr_path);
  } else if (!spec.ispd98_path.empty()) {
    built->graph = read_ispd98_files(spec.ispd98_path).hypergraph;
  } else {
    GenConfig config = preset(spec.preset).scaled(spec.scale);
    if (spec.gen_seed != 0) config.seed = spec.gen_seed;
    built->graph = generate_netlist(config);
  }
  built->content_hash = hypergraph_content_hash(built->graph);
  built->build_seconds = timer.elapsed();
  return built;
}

}  // namespace

std::shared_ptr<const CachedInstance> InstanceCache::get(
    const InstanceSpec& spec, bool* hit) {
  const std::string key = spec.descriptor();
  std::shared_future<std::shared_ptr<const CachedInstance>> future;
  std::promise<std::shared_ptr<const CachedInstance>> promise;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_use = ++use_counter_;
      future = it->second.future;
      ++hits_;
      if (hit != nullptr) *hit = true;
    } else {
      Entry entry;
      entry.future = promise.get_future().share();
      entry.last_use = ++use_counter_;
      future = entry.future;
      entries_.emplace(key, std::move(entry));
      builder = true;
      ++misses_;
      if (hit != nullptr) *hit = false;
    }
  }
  if (builder) {
    try {
      promise.set_value(build_instance(spec));
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) it->second.ready = true;
      evict_locked();
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(key);  // failed builds are retryable
    }
  }
  return future.get();  // rethrows the build error for waiters too
}

void InstanceCache::evict_locked() {
  // det-lint: holds(mutex_) — the _locked suffix is the contract.
  while (true) {
    std::size_t ready = 0;
    auto oldest = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready) continue;
      ++ready;
      if (oldest == entries_.end() ||
          it->second.last_use < oldest->second.last_use) {
        oldest = it;
      }
    }
    if (ready <= capacity_ || oldest == entries_.end()) return;
    entries_.erase(oldest);
  }
}

std::uint64_t InstanceCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t InstanceCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t InstanceCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const CachedResult> ResultCache::find(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  it->second.last_use = ++use_counter_;
  ++hits_;
  return it->second.result;
}

void ResultCache::insert(std::uint64_t key,
                         std::shared_ptr<const CachedResult> result) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[key];
  entry.result = std::move(result);
  entry.last_use = ++use_counter_;
  while (entries_.size() > capacity_) {
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < oldest->second.last_use) oldest = it;
    }
    entries_.erase(oldest);
  }
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t ResultCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace vlsipart::service
