// From-scratch invariant audits of the FM engine's incremental state.
//
// Every quantity the inner loop maintains incrementally — gain-container
// keys, per-net pin counts, the cut, part weights, lookahead locked-pin
// counts — is recomputed here from first principles and compared against
// the live structures, failing fast through VP_CHECK on any drift.  The
// audits are pure observers: they never touch the RNG or mutate state,
// so running them cannot change a result, only expose a wrong one.
//
// Cadence is controlled by AuditConfig (FmConfig::audit, overridable via
// the VLSIPART_AUDIT environment variable); see DESIGN.md "Correctness
// tooling".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/part/core/fm_config.h"
#include "src/part/core/gain_container.h"
#include "src/part/core/partition_state.h"

namespace vlsipart {

/// Read-only snapshot of everything an in-pass audit needs.  All members
/// reference structures owned by the refiner; the view must not outlive
/// the pass it audits.
struct FmAuditView {
  const PartitionProblem* problem = nullptr;
  const FmConfig* config = nullptr;
  const PartitionState* state = nullptr;
  const GainContainer* container = nullptr;
  /// Pass-start gains (the CLIP key baseline).
  std::span<const Gain> initial_gain;
  /// 1 = vertex moved (locked) this pass.
  std::span<const std::uint8_t> locked;
  /// Per-net locked pin counts by side; nullptr unless lookahead
  /// tie-breaking maintains them.
  const std::array<std::vector<std::uint32_t>, 2>* locked_in = nullptr;
};

/// Recompute every contained vertex's expected key — actual gain for
/// classic FM, cumulative delta gain (gain now minus pass-start gain)
/// for CLIP — and compare with GainContainer::key(); also checks side
/// bookkeeping, per-side counts, and that locked / fixed / excluded
/// vertices are absent.  O(pins).
void audit_gain_container(const FmAuditView& view);

/// Recompute the lookahead locked-pin counts (fixed, oversized-excluded
/// and moved vertices per side) and compare with the maintained arrays.
/// No-op when view.locked_in is nullptr.  O(pins).
void audit_locked_pins(const FmAuditView& view);

/// Full mid-pass audit: state.audit() plus the two checks above.
void audit_mid_pass(const FmAuditView& view);

/// Pass-start audit of carried gains: gain[v] == state.gain(v) for every
/// vertex, fixed ones included.  A pass that rolls back by replaying its
/// kept prefix hands its updated gains to the next pass instead of
/// recomputing them; this is the from-scratch check of that hand-over.
/// O(pins).
void audit_pass_start_gains(const PartitionState& state,
                            std::span<const Gain> gain);

/// Pass-boundary audit: state.audit() (pin counts, cut and part weights
/// re-derived from the assignment) plus the rollback guarantees — the
/// pass never worsened the balance violation, and at equal violation
/// never worsened the cut.
void audit_pass_boundary(const PartitionProblem& problem,
                         const PartitionState& state, Weight imbalance_before,
                         Weight cut_before);

}  // namespace vlsipart
