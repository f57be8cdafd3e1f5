#include "src/part/ml/parallel_coarsen.h"

#include <algorithm>
#include <numeric>

#include "src/util/shard.h"

namespace vlsipart {

CoarsenLevel parallel_coarsen_once(const Hypergraph& h,
                                   const CoarsenConfig& config,
                                   const std::vector<PartId>& fixed,
                                   const std::vector<PartId>& parts,
                                   ThreadPool* pool,
                                   ContractionMemory* memory) {
  const std::size_t n = h.num_vertices();
  const Weight max_cw =
      cluster_weight_cap(h, config.coarsen_to, config.max_cluster_weight);
  const std::size_t shards =
      pool != nullptr ? std::max<std::size_t>(1, pool->num_threads()) : 1;

  auto is_fixed = [&fixed](VertexId v) {
    return !fixed.empty() && fixed[v] != kNoPart;
  };
  const bool check_parts = !parts.empty();

  // Phase 1: every vertex independently rates its neighbors against the
  // immutable fine graph and records its preferred partner.  Per-shard
  // scatter-accumulate scratch; writes to pref[] are confined to the
  // shard's own contiguous range.
  std::vector<VertexId> pref(n, kInvalidVertex);
  std::vector<std::vector<double>> shard_rating(shards);
  std::vector<std::vector<VertexId>> shard_touched(shards);

  auto rate_shard = [&](std::size_t shard) {
    const ShardRange range = shard_range(n, shards, shard);
    std::vector<double>& rating = shard_rating[shard];
    std::vector<VertexId>& touched = shard_touched[shard];
    rating.assign(n, 0.0);
    touched.clear();
    for (std::size_t vi = range.begin; vi < range.end; ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      if (is_fixed(v)) continue;  // fixed vertices stay singletons
      touched.clear();
      for (const EdgeId e : h.incident_edges(v)) {
        const std::size_t size = h.edge_size(e);
        if (size < 2 || size > config.max_rated_net_size) continue;
        const double score = static_cast<double>(h.edge_weight(e)) /
                             static_cast<double>(size - 1);
        for (const VertexId u : h.pins(e)) {
          if (u == v || is_fixed(u)) continue;
          if (check_parts && parts[u] != parts[v]) continue;
          if (h.vertex_weight(u) + h.vertex_weight(v) > max_cw) continue;
          if (rating[u] == 0.0) touched.push_back(u);
          rating[u] += score;
        }
      }
      VertexId best = kInvalidVertex;
      double best_rating = 0.0;
      for (const VertexId u : touched) {
        // Highest rating wins; ties go to the lowest partner id.  The
        // accumulation order over v's nets is fixed by the CSR layout,
        // so the scores — and hence the choice — never depend on the
        // shard count.
        if (rating[u] > best_rating ||
            (rating[u] == best_rating && best != kInvalidVertex && u < best)) {
          best = u;
          best_rating = rating[u];
        }
      }
      for (const VertexId u : touched) rating[u] = 0.0;
      pref[vi] = best;
    }
  };
  if (pool != nullptr && shards > 1) {
    pool->parallel_for_dynamic(shards, rate_shard);
  } else {
    for (std::size_t s = 0; s < shards; ++s) rate_shard(s);
  }

  // Phase 2: the mutual pairs (pref[v] == u && pref[u] == v) merge,
  // lowest id leading.  pref is a function of the vertex, so the pairs
  // are disjoint by construction: there is no resolution order to
  // depend on, and cluster_of is already flat.
  std::vector<VertexId> cluster_of(n);
  std::iota(cluster_of.begin(), cluster_of.end(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    const VertexId u = pref[v];
    if (u == kInvalidVertex || u >= static_cast<VertexId>(v)) continue;
    if (pref[u] == static_cast<VertexId>(v)) cluster_of[v] = u;
  }

  ContractionResult contraction = contract(h, cluster_of, memory);
  CoarsenLevel level;
  level.coarse = std::move(contraction.coarse);
  level.fine_to_coarse = std::move(contraction.fine_to_coarse);
  return level;
}

std::vector<CoarsenLevel> parallel_build_hierarchy(
    const Hypergraph& h, const CoarsenConfig& config,
    const std::vector<PartId>& fixed, const std::vector<PartId>& parts,
    ThreadPool* pool, ContractionMemory* memory) {
  return build_levels(
      h, config, fixed, parts,
      [&](const Hypergraph& g, const std::vector<PartId>& level_fixed,
          const std::vector<PartId>& level_parts) {
        return parallel_coarsen_once(g, config, level_fixed, level_parts,
                                     pool, memory);
      });
}

}  // namespace vlsipart
