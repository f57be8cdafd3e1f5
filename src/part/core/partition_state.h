// Incremental 2-way partition state: assignment, per-net pin counts,
// part weights and cut, all maintained in O(degree) per move.
//
// This is the "measurement instrument" of the testbed — every engine
// (flat LIFO/CLIP FM, ML refinement) manipulates a PartitionState, and
// audit() recomputes everything from scratch so tests can verify that the
// incremental bookkeeping never drifts (a classic source of the silent
// implementation bugs the paper warns about).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/part/core/balance.h"
#include "src/util/logging.h"
#include "src/util/prefetch.h"

namespace vlsipart {

/// A partitioning problem instance: hypergraph + balance + fixed vertices.
/// `fixed[v] == kNoPart` means v is free; otherwise v must stay in
/// fixed[v] (terminal propagation / pad locations, Sec. 2.1).
struct PartitionProblem {
  const Hypergraph* graph = nullptr;
  BalanceConstraint balance;
  std::vector<PartId> fixed;  // empty = all free

  bool is_fixed(VertexId v) const {
    return !fixed.empty() && fixed[v] != kNoPart;
  }
};

/// The "four cut values" delta-gain update of one net (Sec. 2.2).  A
/// vertex leaves a side holding `old_from` pins of a net of weight `w`
/// for a side holding `old_to` pins (counts before the move).  Every
/// other free pin of the net then changes its FM gain by `on_from` if it
/// sits on the source side and by `on_to` if it sits on the destination
/// side.  Both are zero on a net that has >= 2 pins on each side before
/// and after the move.  The flat FM pass and the n-level local search
/// both update their keys through this one formula.
struct NetGainDelta {
  Gain on_from = 0;
  Gain on_to = 0;
};

inline NetGainDelta net_gain_delta(std::uint32_t old_from,
                                   std::uint32_t old_to, Weight w) {
  // A pin's gain term on one net: +w when it is the only pin of its
  // side, -w when the other side has no pin.
  const auto term = [w](std::uint32_t own, std::uint32_t other) -> Gain {
    return (own == 1 ? w : 0) - (other == 0 ? w : 0);
  };
  return {term(old_from - 1, old_to + 1) - term(old_from, old_to),
          term(old_to + 1, old_from - 1) - term(old_to, old_from)};
}

class PartitionState {
 public:
  /// Binds to a hypergraph; all vertices start unassigned (kNoPart).
  explicit PartitionState(const Hypergraph& h);

  const Hypergraph& graph() const { return *h_; }

  /// Bulk-assign all vertices (each entry 0 or 1) and recompute all
  /// derived quantities in O(pins).
  void assign(std::span<const PartId> parts);

  /// Move one vertex to the other side; O(degree(v)) update of pin
  /// counts, part weights and cut.
  void move(VertexId v);

  /// Like move(v), but calls `on_net(e, old_from, old_to)` once per
  /// incident net, in incidence order, in the same walk that updates the
  /// net: old_from/old_to are the net's pin counts on v's source and
  /// destination sides before the move, the inputs of net_gain_delta().
  /// The callback may read the part of any vertex but v, and nothing
  /// else of this state: v's part and the part weights change only after
  /// the last net, and the pin counts and cut are mid-update.
  template <class OnNet>
  void move(VertexId v, OnNet&& on_net);

  PartId part(VertexId v) const { return parts_[v]; }
  const std::vector<PartId>& parts() const { return parts_; }

  Weight part_weight(PartId p) const { return part_weight_[p]; }
  /// Number of pins of edge e currently in part p.  The two per-part
  /// counters of a net are interleaved (slot 2e+p) so every per-move net
  /// transition — and every gain recomputation — touches one cache line
  /// per net instead of one per (net, part).
  std::uint32_t pins_in(EdgeId e, PartId p) const {
    return pins_in_[2 * static_cast<std::size_t>(e) + p];
  }
  bool edge_cut(EdgeId e) const {
    const std::size_t base = 2 * static_cast<std::size_t>(e);
    return pins_in_[base] > 0 && pins_in_[base + 1] > 0;
  }

  /// Weighted cut: sum of weights of edges spanning both parts.  This is
  /// the paper's standard "cut size" objective (unweighted nets -> number
  /// of cut nets).
  Weight cut() const { return cut_; }

  /// FM gain of moving v to the other side under the cut objective:
  /// sum over incident nets e of
  ///   +w(e) if v is the only pin of its part on e  (net becomes uncut)
  ///   -w(e) if the other part has no pin on e      (net becomes cut).
  Gain gain(VertexId v) const;

  /// Recompute everything from the assignment and compare against the
  /// incrementally maintained values; throws std::logic_error on any
  /// mismatch.  O(pins).
  void audit() const;

 private:
  /// Net-walk prefetch distance of move(): far enough to cover an L2
  /// hit, near enough that the line is still resident when the walk
  /// arrives.
  static constexpr std::size_t kNetPrefetchDistance = 4;

  const Hypergraph* h_;
  std::vector<PartId> parts_;
  std::array<Weight, 2> part_weight_{0, 0};
  /// Interleaved per-net pin counts: slot 2e+p = pins of e in part p.
  std::vector<std::uint32_t> pins_in_;
  Weight cut_ = 0;
};

template <class OnNet>
void PartitionState::move(VertexId v, OnNet&& on_net) {
  const PartId from = parts_[v];
  VP_DCHECK(from == 0 || from == 1, "vertex assigned before move");
  const PartId to = from ^ 1;
  const auto nets = h_->incident_edges(v);
  const std::size_t prefetch_end =
      nets.size() > kNetPrefetchDistance ? nets.size() - kNetPrefetchDistance
                                         : 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (i < prefetch_end) {
      // The interleaved pair (2e, 2e+1) shares an 8-byte-aligned chunk,
      // so one prefetch covers both counters of the upcoming net.
      VP_PREFETCH_WRITE(
          &pins_in_[2 * static_cast<std::size_t>(
                            nets[i + kNetPrefetchDistance])]);
    }
    const EdgeId e = nets[i];
    const std::size_t base = 2 * static_cast<std::size_t>(e);
    const std::uint32_t old_from = pins_in_[base + from];
    const std::uint32_t old_to = pins_in_[base + to];
    pins_in_[base + from] = old_from - 1;
    pins_in_[base + to] = old_to + 1;
    // v itself is a from-side pin, so old_from >= 1 and the to side never
    // empties: cut membership flips only through old_to == 0 (newly cut)
    // or old_from == 1 (now uncut).
    const bool was_cut = old_to > 0;
    const bool now_cut = old_from > 1;
    if (was_cut != now_cut) {
      const Weight ew = h_->edge_weight(e);
      cut_ += now_cut ? ew : -ew;
    }
    on_net(e, old_from, old_to);
  }
  const Weight w = h_->vertex_weight(v);
  parts_[v] = to;
  part_weight_[from] -= w;
  part_weight_[to] += w;
}

/// Recompute the cut of an assignment without building a state. O(pins).
Weight compute_cut(const Hypergraph& h, std::span<const PartId> parts);

/// Part weights of an assignment. O(V).
std::array<Weight, 2> compute_part_weights(const Hypergraph& h,
                                           std::span<const PartId> parts);

/// Full feasibility audit of a solution against a problem: every vertex
/// assigned 0/1, fixed vertices respected, balance satisfied.
/// Returns an empty string if OK, else a description of the violation.
std::string check_solution(const PartitionProblem& problem,
                           std::span<const PartId> parts);

/// As above, but additionally recomputes the cut from scratch and rejects
/// the solution when it disagrees with `claimed_cut` — the check that
/// catches an engine whose incremental bookkeeping drifted from the
/// assignment it reports.
std::string check_solution(const PartitionProblem& problem,
                           std::span<const PartId> parts, Weight claimed_cut);

}  // namespace vlsipart
