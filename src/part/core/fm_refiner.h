// Fiduccia-Mattheyses pass-based 2-way refinement engine, with the CLIP
// variant of Dutt-Deng [15], parameterized over every implicit
// implementation decision the paper studies (see FmConfig).
//
// The engine refines a PartitionState in place.  Each pass:
//   1. computes gains and builds the gain container (CLIP: all keys 0,
//      heads ordered by descending initial gain, per [15]), and copies
//      the state as the pass-start snapshot;
//   2. repeatedly selects the highest-key legal move — examining only the
//      first move of each bucket unless look_beyond_first — applies it,
//      locks the vertex, and updates neighbor gains via the
//      "four cut values" per-net delta computation, honoring the
//      zero-delta-gain update policy;
//   3. rolls back to the best prefix (tie-broken per BestChoice).  When
//      the prefix is at most half the moves, it restores the snapshot
//      and replays the prefix, carrying the gains along so the next pass
//      skips step 1's gain sweep; otherwise it undoes the tail move by
//      move.  Either way the state is the same.
// Passes repeat until no improvement (or max_passes).
//
// Pass statistics expose the corking diagnostics of Sec. 2.3:
// a zero-move pass is exactly a "corked" CLIP pass.
#pragma once

#include <optional>
#include <vector>

#include "src/part/core/fm_config.h"
#include "src/part/core/gain_container.h"
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {

struct FmPassStats {
  std::size_t moves_made = 0;
  std::size_t moves_kept = 0;  ///< best prefix length after rollback
  Weight cut_before = 0;
  Weight cut_after = 0;
  /// Pass ended with vertices still in the gain container (every
  /// remaining head was illegal) rather than by exhaustion.
  bool stalled = false;
  /// Pass made no moves at all — the corking signature.
  bool zero_move_pass = false;
  std::size_t zero_delta_updates = 0;
  std::size_t nonzero_delta_updates = 0;
  /// Vertices excluded from the gain structure as oversized.
  std::size_t oversized_excluded = 0;
  /// Incident nets whose per-pin delta-gain walk was skipped because the
  /// net stayed non-critical across the move (>= 2 pins on both sides
  /// before and after — every pin's delta is provably zero).  Only
  /// possible when zero_gain_update != kAll; the skip is observationally
  /// identical to walking the net and doing nothing.
  std::size_t nets_skipped_noncritical = 0;
  /// Incident nets whose pins were actually walked during gain update.
  std::size_t nets_walked = 0;
};

/// Cumulative gain-update work counters — the cost model behind the
/// net-state-aware inner loop — plus the corking diagnostics.  Aggregated
/// across passes (and, in the multistart harness, per start and across
/// starts) so benches can report how much update work a configuration
/// actually performed and how many of its starts corked.
struct UpdateWork {
  std::size_t nets_skipped_noncritical = 0;
  std::size_t nets_walked = 0;
  std::size_t nonzero_delta_updates = 0;
  std::size_t zero_delta_updates = 0;
  /// Passes that made no move (corked, Sec. 2.3) and passes that ended
  /// with every remaining head illegal.
  std::size_t zero_move_passes = 0;
  std::size_t stalled_passes = 0;

  void absorb(const FmPassStats& s) {
    nets_skipped_noncritical += s.nets_skipped_noncritical;
    nets_walked += s.nets_walked;
    nonzero_delta_updates += s.nonzero_delta_updates;
    zero_delta_updates += s.zero_delta_updates;
    zero_move_passes += s.zero_move_pass ? 1 : 0;
    stalled_passes += s.stalled ? 1 : 0;
  }
  void absorb(const UpdateWork& o) {
    nets_skipped_noncritical += o.nets_skipped_noncritical;
    nets_walked += o.nets_walked;
    nonzero_delta_updates += o.nonzero_delta_updates;
    zero_delta_updates += o.zero_delta_updates;
    zero_move_passes += o.zero_move_passes;
    stalled_passes += o.stalled_passes;
  }
  /// Counters accumulated in `after` since the `before` snapshot.
  static UpdateWork delta(const UpdateWork& after, const UpdateWork& before) {
    UpdateWork d;
    d.nets_skipped_noncritical =
        after.nets_skipped_noncritical - before.nets_skipped_noncritical;
    d.nets_walked = after.nets_walked - before.nets_walked;
    d.nonzero_delta_updates =
        after.nonzero_delta_updates - before.nonzero_delta_updates;
    d.zero_delta_updates =
        after.zero_delta_updates - before.zero_delta_updates;
    d.zero_move_passes = after.zero_move_passes - before.zero_move_passes;
    d.stalled_passes = after.stalled_passes - before.stalled_passes;
    return d;
  }
  /// Fraction of incident-net visits resolved without a pin walk.
  double skip_rate() const {
    const std::size_t total = nets_skipped_noncritical + nets_walked;
    return total == 0
               ? 0.0
               : static_cast<double>(nets_skipped_noncritical) /
                     static_cast<double>(total);
  }
};

struct FmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  std::size_t passes = 0;
  std::size_t total_moves = 0;
  std::size_t zero_move_passes = 0;
  std::size_t stalled_passes = 0;
  std::vector<FmPassStats> pass_stats;
  /// Per-pass cut-after-each-move trajectories; only recorded when
  /// FmConfig::record_trace is set.  trace[p][m] is the cut after move
  /// m+1 of pass p (before rollback) — the classic FM pass profile, and
  /// the raw data behind "traces of CLIP executions show that corking
  /// actually occurs fairly often" (Sec. 2.3).
  std::vector<std::vector<Weight>> pass_traces;

  /// Gain-update work summed over all passes of this refine() call.
  UpdateWork update_work() const {
    UpdateWork w;
    for (const FmPassStats& s : pass_stats) w.absorb(s);
    return w;
  }
};

class FmRefiner {
 public:
  /// The problem (graph/balance/fixed) must outlive the refiner.
  FmRefiner(const PartitionProblem& problem, FmConfig config);

  /// Refine `state` (already fully assigned) in place.  Deterministic
  /// given `rng`'s state.  The state's assignment always ends feasible if
  /// it started feasible (rollback guarantees never-worse cut and
  /// never-worse balance violation).
  FmResult refine(PartitionState& state, Rng& rng);

  const FmConfig& config() const { return config_; }

 private:
  struct Candidate {
    VertexId v = kInvalidVertex;
    Gain key = 0;
    bool valid = false;
  };

  /// What one pass hands the next within a refine() call: the
  /// pass-start copy of the state (the buffers are reused), and whether
  /// initial_gain_ already holds the gains of the state.
  struct PassCarry {
    std::optional<PartitionState> snapshot;
    bool gains_valid = false;
  };

  bool move_allowed(const PartitionState& state, VertexId v) const;
  Candidate select_from_side(const PartitionState& state, PartId side) const;
  Candidate select_move(const PartitionState& state, PartId last_from) const;
  FmPassStats run_pass(PartitionState& state, PassCarry& carry, Rng& rng);

  /// From-scratch cross-check of every incrementally maintained structure
  /// (see invariant_audit.h); called at the cadence audit_ prescribes.
  void run_in_pass_audit(const PartitionState& state) const;

  /// Krishnamurthy level-2..r lookahead gains of v (binding numbers over
  /// free/locked pin counts); out[k-2] is the level-k gain.
  void lookahead_vector(const PartitionState& state, VertexId v,
                        std::vector<Gain>& out) const;
  /// Within the bucket starting at `head`, pick the legal move with the
  /// lexicographically largest lookahead vector (scanning at most
  /// kLookaheadScanLimit entries).  kInvalidVertex if none is legal.
  VertexId best_lookahead_move(const PartitionState& state,
                               VertexId head) const;

  /// Imbalance of a part-0 weight: 0 when feasible, else distance to the
  /// window.  Used so passes started from an infeasible projection (in
  /// multilevel uncoarsening) first restore feasibility.
  Weight imbalance(Weight w0) const;

  const PartitionProblem* problem_;
  FmConfig config_;
  /// config_.audit resolved against VLSIPART_AUDIT at construction.
  AuditConfig audit_;
  GainContainer container_;
  std::vector<std::uint8_t> locked_;
  std::vector<VertexId> move_order_;
  Gain max_abs_gain_ = 0;
  /// Per-net locked pin counts by side; maintained only when lookahead
  /// tie-breaking is active (binding numbers need free-vs-locked).
  std::array<std::vector<std::uint32_t>, 2> locked_pins_;
  bool use_lookahead_ = false;
  /// Cut-after-each-move trajectory of the pass in flight (only when
  /// config_.record_trace).
  std::vector<Weight> current_trace_;
  /// Per-pass scratch, hoisted so repeated refine() calls (multistart)
  /// reuse the allocations instead of reconstructing them every pass.
  std::vector<VertexId> build_order_;
  /// Pass-start gains; after a snapshot rollback, the next pass's.
  std::vector<Gain> initial_gain_;
  /// Radix-sort scratch for CLIP's initial-gain bucket order.
  std::vector<VertexId> sort_scratch_;
  /// Lookahead-selection scratch (best_lookahead_move is called per
  /// selection; the vectors are members so the per-call allocation
  /// disappears).
  mutable std::vector<Gain> la_vec_;
  mutable std::vector<Gain> la_best_vec_;
};

}  // namespace vlsipart
