#include "src/part/ml/coarsen.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"

namespace vlsipart {

CoarsenLevel coarsen_once(const Hypergraph& h, const CoarsenConfig& config,
                          const std::vector<PartId>& fixed,
                          const std::vector<PartId>& parts, Rng& rng,
                          ContractionMemory* memory) {
  const std::size_t n = h.num_vertices();
  const Weight max_cw =
      cluster_weight_cap(h, config.coarsen_to, config.max_cluster_weight);

  // cluster_of[v] = representative vertex id of v's cluster.
  std::vector<VertexId> cluster_of(n);
  std::iota(cluster_of.begin(), cluster_of.end(), 0);
  std::vector<Weight> cluster_weight(n);
  for (std::size_t v = 0; v < n; ++v) {
    cluster_weight[v] = h.vertex_weight(static_cast<VertexId>(v));
  }

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Scatter-accumulate ratings against neighbor clusters.
  std::vector<double> rating(n, 0.0);
  std::vector<VertexId> touched;

  auto is_fixed = [&](VertexId v) {
    return !fixed.empty() && fixed[v] != kNoPart;
  };

  // Union-find representative lookup with path halving.  Ratings must be
  // keyed by the *current* representative — keying by stale cluster
  // pointers can create pointer cycles (a absorbed into b's old id while
  // b was absorbed into a), which would never terminate.
  auto find = [&](VertexId x) {
    while (cluster_of[x] != x) {
      cluster_of[x] = cluster_of[cluster_of[x]];
      x = cluster_of[x];
    }
    return x;
  };

  const bool matching_only =
      config.scheme == CoarsenScheme::kHeavyEdgeMatching;
  // In matching mode a representative that already absorbed (or was
  // absorbed) is saturated and cannot cluster again this level.
  std::vector<std::uint8_t> matched(n, 0);

  for (const VertexId u : order) {
    if (cluster_of[u] != u) continue;  // already absorbed
    if (is_fixed(u)) continue;         // fixed vertices stay singletons
    if (matching_only && matched[u]) continue;
    touched.clear();
    for (const EdgeId e : h.incident_edges(u)) {
      const std::size_t size = h.edge_size(e);
      if (size > config.max_rated_net_size) continue;
      const double score = static_cast<double>(h.edge_weight(e)) /
                           static_cast<double>(size - 1);
      for (const VertexId w : h.pins(e)) {
        const VertexId c = find(w);
        if (c == u) continue;
        if (is_fixed(c)) continue;
        if (matching_only && matched[c]) continue;
        if (config.respect_parts && !parts.empty() && parts[w] != parts[u]) {
          continue;
        }
        if (rating[c] == 0.0) touched.push_back(c);
        rating[c] += score;
      }
    }
    VertexId best = kInvalidVertex;
    double best_rating = 0.0;
    const Weight wu = cluster_weight[u];
    for (const VertexId c : touched) {
      if (cluster_weight[c] + wu <= max_cw &&
          (rating[c] > best_rating ||
           (rating[c] == best_rating && best != kInvalidVertex && c < best))) {
        best = c;
        best_rating = rating[c];
      }
    }
    for (const VertexId c : touched) rating[c] = 0.0;
    if (best == kInvalidVertex) continue;
    // Absorb u into best's cluster.
    cluster_of[u] = best;
    cluster_weight[best] += wu;
    if (matching_only) {
      matched[u] = 1;
      matched[best] = 1;
    }
  }

  // Final full compression so contract() sees flat cluster ids.
  for (std::size_t v = 0; v < n; ++v) {
    cluster_of[v] = find(static_cast<VertexId>(v));
  }

  ContractionResult contraction = contract(h, cluster_of, memory);
  CoarsenLevel level;
  level.coarse = std::move(contraction.coarse);
  level.fine_to_coarse = std::move(contraction.fine_to_coarse);
  return level;
}

std::vector<CoarsenLevel> build_levels(const Hypergraph& h,
                                       const CoarsenConfig& config,
                                       const std::vector<PartId>& fixed,
                                       const std::vector<PartId>& parts,
                                       const LevelBuilder& build_level) {
  std::vector<CoarsenLevel> levels;
  const Hypergraph* current = &h;
  std::vector<PartId> current_fixed = fixed;
  std::vector<PartId> current_parts = parts;

  while (current->num_vertices() > config.coarsen_to) {
    CoarsenLevel level = build_level(*current, current_fixed, current_parts);
    const double reduction =
        static_cast<double>(level.coarse.num_vertices()) /
        static_cast<double>(current->num_vertices());
    if (reduction > config.min_reduction) break;  // stalled
    if (!current_fixed.empty()) {
      current_fixed = project_fixed(current_fixed, level.fine_to_coarse,
                                    level.coarse.num_vertices());
    }
    if (config.respect_parts && !current_parts.empty()) {
      // Clusters are part-homogeneous, so any member's part is the
      // cluster's part.
      std::vector<PartId> coarse_parts(level.coarse.num_vertices(), kNoPart);
      for (std::size_t v = 0; v < current_parts.size(); ++v) {
        coarse_parts[level.fine_to_coarse[v]] = current_parts[v];
      }
      current_parts = std::move(coarse_parts);
    }
    levels.push_back(std::move(level));
    current = &levels.back().coarse;
  }
  return levels;
}

std::vector<CoarsenLevel> build_hierarchy(const Hypergraph& h,
                                          const CoarsenConfig& config,
                                          const std::vector<PartId>& fixed,
                                          const std::vector<PartId>& parts,
                                          Rng& rng,
                                          ContractionMemory* memory) {
  return build_levels(
      h, config, fixed, parts,
      [&](const Hypergraph& g, const std::vector<PartId>& level_fixed,
          const std::vector<PartId>& level_parts) {
        return coarsen_once(g, config, level_fixed, level_parts, rng,
                            memory);
      });
}

std::vector<PartId> project_fixed(const std::vector<PartId>& fine_fixed,
                                  const std::vector<VertexId>& fine_to_coarse,
                                  std::size_t num_coarse) {
  std::vector<PartId> coarse_fixed(num_coarse, kNoPart);
  for (std::size_t v = 0; v < fine_fixed.size(); ++v) {
    if (fine_fixed[v] == kNoPart) continue;
    PartId& slot = coarse_fixed[fine_to_coarse[v]];
    VP_CHECK(slot == kNoPart || slot == fine_fixed[v],
             "fixed vertices of different parts merged");
    slot = fine_fixed[v];
  }
  return coarse_fixed;
}

}  // namespace vlsipart
