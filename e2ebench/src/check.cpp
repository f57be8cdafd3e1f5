#include "src/check.h"

#include "src/part/kway/recursive_bisection.h"
#include "src/trace.h"

namespace e2ebench {

Weight recount_cut(const Hypergraph& h, const std::vector<PartId>& parts) {
  Weight cut = 0;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(static_cast<vlsipart::EdgeId>(e));
    if (pins.empty()) continue;
    const PartId first = parts[pins[0]];
    for (const vlsipart::VertexId v : pins) {
      if (parts[v] != first) {
        cut += h.edge_weight(static_cast<vlsipart::EdgeId>(e));
        break;
      }
    }
  }
  return cut;
}

namespace {

/// Empty when the benchmark's own recount matches the claimed cut.
std::string recount_mismatch(const Hypergraph& h,
                             const std::vector<PartId>& parts,
                             Weight claimed_cut) {
  if (parts.size() != h.num_vertices()) return "assignment size mismatch";
  const Weight own = recount_cut(h, parts);
  if (own == claimed_cut) return {};
  return "cut mismatch: claimed " + std::to_string(claimed_cut) +
         ", recount " + std::to_string(own);
}

}  // namespace

std::string check_bipartition(const PartitionProblem& problem,
                              const std::vector<PartId>& parts,
                              Weight claimed_cut) {
  std::string error = recount_mismatch(*problem.graph, parts, claimed_cut);
  if (!error.empty()) return error;
  const ScopedSpan span("core.check");
  return vlsipart::check_solution(problem, parts, claimed_cut);
}

std::string check_kway_partition(const Hypergraph& h,
                                 const std::vector<PartId>& parts,
                                 std::size_t k, double tolerance,
                                 Weight claimed_cut) {
  std::string error = recount_mismatch(h, parts, claimed_cut);
  if (!error.empty()) return error;
  const ScopedSpan span("core.check");
  return vlsipart::check_kway(h, parts, k, tolerance);
}

}  // namespace e2ebench
