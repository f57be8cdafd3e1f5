#include "src/part/core/invariant_audit.h"

#include "src/util/logging.h"

namespace vlsipart {
namespace {

Weight imbalance_of(const BalanceConstraint& balance, Weight w0) {
  if (w0 < balance.min_part()) return balance.min_part() - w0;
  if (w0 > balance.max_part()) return w0 - balance.max_part();
  return 0;
}

/// A vertex the pass never inserts: fixed, or oversized under the
/// corking fix.
bool is_immovable(const FmAuditView& view, VertexId v) {
  if (view.problem->is_fixed(v)) return true;
  return view.config->exclude_oversized &&
         view.problem->graph->vertex_weight(v) >
             view.problem->balance.window();
}

}  // namespace

void audit_gain_container(const FmAuditView& view) {
  const PartitionState& state = *view.state;
  const GainContainer& container = *view.container;
  const std::size_t n = view.problem->graph->num_vertices();
  VP_CHECK(view.initial_gain.size() == n,
           "audit: initial-gain span covers vertices");
  VP_CHECK(view.locked.size() == n, "audit: locked span covers vertices");
  std::size_t contained_by_side[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<VertexId>(i);
    if (view.locked[i] != 0 || is_immovable(view, v)) {
      VP_CHECK(!container.contains(v),
               "audit: locked/fixed/excluded vertex " << i
                                                      << " in gain container");
      continue;
    }
    VP_CHECK(container.contains(v),
             "audit: free vertex " << i << " missing from gain container");
    ++contained_by_side[container.side_of(v)];
    VP_CHECK(container.side_of(v) == state.part(v),
             "audit: container side of vertex "
                 << i << " is " << int(container.side_of(v))
                 << " but the vertex is in part " << int(state.part(v)));
    // Classic FM keys are the actual gain; CLIP keys are the cumulative
    // delta gain accrued since the pass started.
    const Gain expected = view.config->clip
                              ? state.gain(v) - view.initial_gain[i]
                              : state.gain(v);
    VP_CHECK(container.key(v) == expected,
             "audit: gain key drift at vertex "
                 << i << ": container " << container.key(v)
                 << " vs recomputed " << expected
                 << (view.config->clip ? " (CLIP cumulative delta)" : ""));
  }
  VP_CHECK(contained_by_side[0] == container.size(0) &&
               contained_by_side[1] == container.size(1),
           "audit: container per-side counts ("
               << container.size(0) << ", " << container.size(1)
               << ") disagree with contained vertices ("
               << contained_by_side[0] << ", " << contained_by_side[1]
               << ")");
}

void audit_locked_pins(const FmAuditView& view) {
  if (view.locked_in == nullptr) return;
  const Hypergraph& h = *view.problem->graph;
  const PartitionState& state = *view.state;
  std::array<std::vector<std::uint32_t>, 2> expected;
  expected[0].assign(h.num_edges(), 0);
  expected[1].assign(h.num_edges(), 0);
  for (std::size_t i = 0; i < h.num_vertices(); ++i) {
    const auto v = static_cast<VertexId>(i);
    if (view.locked[i] == 0 && !is_immovable(view, v)) continue;
    for (const EdgeId e : h.incident_edges(v)) {
      ++expected[state.part(v)][e];
    }
  }
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    VP_CHECK((*view.locked_in)[0][e] == expected[0][e] &&
                 (*view.locked_in)[1][e] == expected[1][e],
             "audit: lookahead locked-pin counts drifted on edge "
                 << e << ": maintained (" << (*view.locked_in)[0][e] << ", "
                 << (*view.locked_in)[1][e] << ") vs recomputed ("
                 << expected[0][e] << ", " << expected[1][e] << ")");
  }
}

void audit_mid_pass(const FmAuditView& view) {
  view.state->audit();
  audit_gain_container(view);
  audit_locked_pins(view);
}

void audit_pass_start_gains(const PartitionState& state,
                            std::span<const Gain> gain) {
  const std::size_t n = state.graph().num_vertices();
  VP_CHECK(gain.size() == n, "audit: carried-gain span covers vertices");
  for (std::size_t i = 0; i < n; ++i) {
    const Gain expected = state.gain(static_cast<VertexId>(i));
    VP_CHECK(gain[i] == expected, "audit: carried gain drift at vertex "
                                      << i << ": carried " << gain[i]
                                      << " vs recomputed " << expected);
  }
}

void audit_pass_boundary(const PartitionProblem& problem,
                         const PartitionState& state, Weight imbalance_before,
                         Weight cut_before) {
  state.audit();
  const Weight imbalance_after =
      imbalance_of(problem.balance, state.part_weight(0));
  VP_CHECK(imbalance_after <= imbalance_before,
           "audit: pass worsened the balance violation from "
               << imbalance_before << " to " << imbalance_after);
  if (imbalance_after == imbalance_before) {
    VP_CHECK(state.cut() <= cut_before,
             "audit: pass worsened the cut from " << cut_before << " to "
                                                  << state.cut()
                                                  << " at equal imbalance");
  }
}

}  // namespace vlsipart
