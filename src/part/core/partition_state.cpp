#include "src/part/core/partition_state.h"

#include <sstream>

#include "src/util/logging.h"

namespace vlsipart {

PartitionState::PartitionState(const Hypergraph& h)
    : h_(&h),
      parts_(h.num_vertices(), kNoPart),
      pins_in_(2 * h.num_edges(), 0) {}

void PartitionState::assign(std::span<const PartId> parts) {
  VP_CHECK(parts.size() == h_->num_vertices(), "assignment covers vertices");
  parts_.assign(parts.begin(), parts.end());
  part_weight_ = {0, 0};
  pins_in_.assign(2 * h_->num_edges(), 0);
  for (std::size_t v = 0; v < parts_.size(); ++v) {
    VP_CHECK(parts_[v] == 0 || parts_[v] == 1, "part id is 0 or 1, v=" << v);
    part_weight_[parts_[v]] += h_->vertex_weight(static_cast<VertexId>(v));
  }
  cut_ = 0;
  for (std::size_t e = 0; e < h_->num_edges(); ++e) {
    for (const VertexId v : h_->pins(static_cast<EdgeId>(e))) {
      ++pins_in_[2 * e + parts_[v]];
    }
    if (pins_in_[2 * e] > 0 && pins_in_[2 * e + 1] > 0) {
      cut_ += h_->edge_weight(static_cast<EdgeId>(e));
    }
  }
}

void PartitionState::move(VertexId v) {
  move(v, [](EdgeId, std::uint32_t, std::uint32_t) {});
}

Gain PartitionState::gain(VertexId v) const {
  const PartId from = parts_[v];
  const PartId to = from ^ 1;
  Gain g = 0;
  for (const EdgeId e : h_->incident_edges(v)) {
    const Weight ew = h_->edge_weight(e);
    const std::size_t base = 2 * static_cast<std::size_t>(e);
    if (pins_in_[base + from] == 1) g += ew;
    if (pins_in_[base + to] == 0) g -= ew;
  }
  return g;
}

void PartitionState::audit() const {
  std::array<Weight, 2> weights{0, 0};
  for (std::size_t v = 0; v < parts_.size(); ++v) {
    VP_CHECK(parts_[v] == 0 || parts_[v] == 1, "vertex assigned, v=" << v);
    weights[parts_[v]] += h_->vertex_weight(static_cast<VertexId>(v));
  }
  VP_CHECK(weights[0] == part_weight_[0] && weights[1] == part_weight_[1],
           "part weights match recomputation");
  Weight cut = 0;
  for (std::size_t e = 0; e < h_->num_edges(); ++e) {
    std::uint32_t p0 = 0;
    std::uint32_t p1 = 0;
    for (const VertexId v : h_->pins(static_cast<EdgeId>(e))) {
      if (parts_[v] == 0) {
        ++p0;
      } else {
        ++p1;
      }
    }
    VP_CHECK(p0 == pins_in_[2 * e] && p1 == pins_in_[2 * e + 1],
             "pin counts match recomputation, e=" << e);
    if (p0 > 0 && p1 > 0) cut += h_->edge_weight(static_cast<EdgeId>(e));
  }
  VP_CHECK(cut == cut_, "cut matches recomputation: incremental " << cut_
                                                                  << " vs "
                                                                  << cut);
}

Weight compute_cut(const Hypergraph& h, std::span<const PartId> parts) {
  VP_CHECK(parts.size() == h.num_vertices(), "assignment covers vertices");
  Weight cut = 0;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    bool in0 = false;
    bool in1 = false;
    for (const VertexId v : h.pins(static_cast<EdgeId>(e))) {
      if (parts[v] == 0) {
        in0 = true;
      } else {
        in1 = true;
      }
      if (in0 && in1) break;
    }
    if (in0 && in1) cut += h.edge_weight(static_cast<EdgeId>(e));
  }
  return cut;
}

std::array<Weight, 2> compute_part_weights(const Hypergraph& h,
                                           std::span<const PartId> parts) {
  std::array<Weight, 2> w{0, 0};
  for (std::size_t v = 0; v < parts.size(); ++v) {
    if (parts[v] <= 1) w[parts[v]] += h.vertex_weight(static_cast<VertexId>(v));
  }
  return w;
}

std::string check_solution(const PartitionProblem& problem,
                           std::span<const PartId> parts) {
  const Hypergraph& h = *problem.graph;
  if (parts.size() != h.num_vertices()) {
    return "assignment size mismatch";
  }
  for (std::size_t v = 0; v < parts.size(); ++v) {
    if (parts[v] != 0 && parts[v] != 1) {
      return "vertex " + std::to_string(v) + " unassigned";
    }
    if (problem.is_fixed(static_cast<VertexId>(v)) &&
        parts[v] != problem.fixed[v]) {
      return "fixed vertex " + std::to_string(v) + " moved";
    }
  }
  const auto weights = compute_part_weights(h, parts);
  if (!problem.balance.feasible(weights[0])) {
    std::ostringstream out;
    out << "balance violated: part0=" << weights[0]
        << " not in " << problem.balance.to_string();
    return out.str();
  }
  return {};
}

std::string check_solution(const PartitionProblem& problem,
                           std::span<const PartId> parts, Weight claimed_cut) {
  std::string base = check_solution(problem, parts);
  if (!base.empty()) return base;
  const Weight actual = compute_cut(*problem.graph, parts);
  if (actual != claimed_cut) {
    std::ostringstream out;
    out << "cut miscounted: claimed " << claimed_cut << " but assignment cuts "
        << actual;
    return out.str();
  }
  return {};
}

}  // namespace vlsipart
