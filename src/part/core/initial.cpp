#include "src/part/core/initial.h"

#include <algorithm>
#include <numeric>

#include "src/util/logging.h"

namespace vlsipart {
namespace {

std::vector<PartId> build_initial(const PartitionProblem& problem, Rng* rng) {
  const Hypergraph& h = *problem.graph;
  const std::size_t n = h.num_vertices();
  std::vector<PartId> parts(n, kNoPart);
  Weight weight[2] = {0, 0};

  // Fixed vertices first.
  for (std::size_t v = 0; v < n; ++v) {
    if (problem.is_fixed(static_cast<VertexId>(v))) {
      const PartId p = problem.fixed[v];
      parts[v] = p;
      weight[p] += h.vertex_weight(static_cast<VertexId>(v));
    }
  }

  std::vector<VertexId> order;
  order.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (parts[v] == kNoPart) order.push_back(static_cast<VertexId>(v));
  }
  if (rng != nullptr) rng->shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return h.vertex_weight(a) > h.vertex_weight(b);
  });

  const Weight max_part = problem.balance.max_part();
  for (const VertexId v : order) {
    const Weight w = h.vertex_weight(v);
    const bool fits0 = weight[0] + w <= max_part;
    const bool fits1 = weight[1] + w <= max_part;
    PartId p;
    if (fits0 && fits1) {
      p = (rng != nullptr) ? static_cast<PartId>(rng->below(2))
                           : static_cast<PartId>(weight[0] <= weight[1] ? 0
                                                                        : 1);
    } else if (fits0 != fits1) {
      p = fits0 ? 0 : 1;
    } else {
      p = weight[0] <= weight[1] ? 0 : 1;
    }
    parts[v] = p;
    weight[p] += w;
  }
  return parts;
}

}  // namespace

std::vector<PartId> random_initial(const PartitionProblem& problem,
                                   Rng& rng) {
  return build_initial(problem, &rng);
}

std::vector<PartId> lpt_initial(const PartitionProblem& problem) {
  return build_initial(problem, nullptr);
}

std::vector<PartId> bfs_initial(const PartitionProblem& problem, Rng& rng) {
  const Hypergraph& h = *problem.graph;
  const std::size_t n = h.num_vertices();
  // 32-bit id contract: every vertex index below is representable.
  VP_CHECK(n <= kInvalidVertex, "vertex count " << n << " fits VertexId");
  std::vector<PartId> parts(n, 1);
  Weight w0 = 0;
  const Weight target = h.total_vertex_weight() / 2;

  std::vector<VertexId> frontier;
  auto claim = [&](VertexId v) {
    if (parts[v] == 0) return;
    // Fixed part-1 vertices can never join the region.
    if (problem.is_fixed(v) && problem.fixed[v] == 1) return;
    parts[v] = 0;
    w0 += h.vertex_weight(v);
    frontier.push_back(v);
  };

  // Fixed part-0 vertices pre-seed the region.
  for (std::size_t v = 0; v < n; ++v) {
    if (problem.is_fixed(static_cast<VertexId>(v)) &&
        problem.fixed[v] == 0) {
      claim(static_cast<VertexId>(v));
    }
  }

  std::size_t cursor = 0;
  while (w0 < target) {
    if (cursor == frontier.size()) {
      // Grown region exhausted (or empty): jump to a fresh random free
      // seed — handles disconnected instances.
      VertexId seed = kInvalidVertex;
      for (std::size_t attempt = 0; attempt < 4 * n; ++attempt) {
        const auto v = static_cast<VertexId>(rng.below(n));
        if (parts[v] == 1 && !(problem.is_fixed(v) && problem.fixed[v] == 1)) {
          seed = v;
          break;
        }
      }
      if (seed == kInvalidVertex) break;  // everything claimable claimed
      claim(seed);
      continue;
    }
    const VertexId v = frontier[cursor++];
    for (const EdgeId e : h.incident_edges(v)) {
      for (const VertexId u : h.pins(e)) {
        if (w0 >= target) break;
        claim(u);
      }
      if (w0 >= target) break;
    }
  }
  return parts;
}

std::vector<PartId> make_initial(const PartitionProblem& problem,
                                 InitialScheme scheme, std::size_t try_index,
                                 Rng& rng) {
  switch (scheme) {
    case InitialScheme::kRandom:
      return random_initial(problem, rng);
    case InitialScheme::kBfs:
      return bfs_initial(problem, rng);
    case InitialScheme::kMixed:
      return (try_index % 2 == 0) ? random_initial(problem, rng)
                                  : bfs_initial(problem, rng);
  }
  return random_initial(problem, rng);
}

std::vector<PartId> best_of_initial_tries(
    const PartitionProblem& problem, InitialScheme scheme, std::size_t tries,
    Rng& rng, const std::function<void(PartitionState&)>& refine) {
  std::vector<PartId> best_parts;
  bool best_feasible = false;
  Weight best_cut = 0;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, tries); ++t) {
    PartitionState state(*problem.graph);
    state.assign(make_initial(problem, scheme, t, rng));
    refine(state);
    const bool feasible = check_solution(problem, state.parts()).empty();
    if (best_parts.empty() ||
        (feasible && (!best_feasible || state.cut() < best_cut))) {
      best_parts = state.parts();
      best_feasible = feasible;
      best_cut = state.cut();
    }
  }
  return best_parts;
}

}  // namespace vlsipart
