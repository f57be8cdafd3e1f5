#include "src/part/ml/coarsen.h"

#include <numeric>

namespace vlsipart {

CoarsenLevel coarsen_once(const Hypergraph& h, const CoarsenConfig& config,
                          const std::vector<PartId>& fixed,
                          const std::vector<PartId>& parts, Rng& rng,
                          ContractionMemory* memory) {
  const std::size_t n = h.num_vertices();
  const Weight max_cw =
      cluster_weight_cap(h, config.coarsen_to, config.max_cluster_weight);

  // cluster_of[v] = the vertex v is matched into (v itself if unmatched
  // or leading its pair): already flat cluster ids for contract().
  std::vector<VertexId> cluster_of(n);
  std::iota(cluster_of.begin(), cluster_of.end(), 0);
  // A vertex that matched (either side of a pair) is saturated for the
  // rest of the level.
  std::vector<std::uint8_t> matched(n, 0);

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Scatter-accumulate ratings against unmatched neighbors.
  std::vector<double> rating(n, 0.0);
  std::vector<VertexId> touched;

  auto is_fixed = [&](VertexId v) {
    return !fixed.empty() && fixed[v] != kNoPart;
  };

  for (const VertexId u : order) {
    if (matched[u] || is_fixed(u)) continue;  // fixed stay singletons
    touched.clear();
    for (const EdgeId e : h.incident_edges(u)) {
      const std::size_t size = h.edge_size(e);
      if (size > config.max_rated_net_size) continue;
      const double score = static_cast<double>(h.edge_weight(e)) /
                           static_cast<double>(size - 1);
      for (const VertexId w : h.pins(e)) {
        if (w == u || matched[w] || is_fixed(w)) continue;
        if (!parts.empty() && parts[w] != parts[u]) continue;
        if (rating[w] == 0.0) touched.push_back(w);
        rating[w] += score;
      }
    }
    VertexId best = kInvalidVertex;
    double best_rating = 0.0;
    const Weight wu = h.vertex_weight(u);
    for (const VertexId w : touched) {
      if (h.vertex_weight(w) + wu <= max_cw &&
          (rating[w] > best_rating ||
           (rating[w] == best_rating && best != kInvalidVertex && w < best))) {
        best = w;
        best_rating = rating[w];
      }
    }
    for (const VertexId w : touched) rating[w] = 0.0;
    if (best == kInvalidVertex) continue;
    cluster_of[u] = best;
    matched[u] = 1;
    matched[best] = 1;
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
  const std::vector<PartId>* current_fixed = &fixed;
  std::vector<PartId> current_parts = parts;

  while (current->num_vertices() > config.coarsen_to) {
    CoarsenLevel level = build_level(*current, *current_fixed, current_parts);
    const double reduction =
        static_cast<double>(level.coarse.num_vertices()) /
        static_cast<double>(current->num_vertices());
    if (reduction > config.min_reduction) break;  // stalled
    if (!current_fixed->empty()) {
      level.fixed = project_fixed(*current_fixed, level.fine_to_coarse,
                                  level.coarse.num_vertices());
    }
    if (!current_parts.empty()) {
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
    current_fixed = &levels.back().fixed;
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

}  // namespace vlsipart
