// Direct k-way FM refinement pass (first-order Sanchis scheme [32]).
//
// Each free vertex owns one candidate move: to the target part with the
// highest first-order gain.  Candidates live in a single gain-bucket
// pool keyed by that gain.  A pass repeatedly extracts the best legal
// candidate, applies it, locks the vertex, updates neighbor candidates,
// and finally rolls back to the best prefix — the same pass discipline
// as the 2-way engine.  Each vertex's best (target, gain) is cached; a
// move recomputes it only for the pins of nets whose count on the
// source or destination part crossed a 0/1/2 threshold, the only nets
// on which any gain changes.  A clock net that stays spread over its
// parts thus costs a pass over its pins per move, not a best-target
// search per pin.
//
// Sanchis's full scheme adds Krishnamurthy level gains per direction.
// They are not kept: as a tie-break among equal first-order gains they
// matched the plain polish in 42 of 60 recursive-bisection cells
// (ibm01-03, k = 2-16, seeds 1-5), were 1 cut worse in 10 and better in
// 8 (EXPERIMENTS.md, k-way).  First-order k-way FM is also what later
// k-way partitioners kept.
//
// Used to polish recursive-bisection solutions: RB fixes the block
// hierarchy top-down and cannot move a vertex between cousin blocks;
// direct k-way passes can.
#pragma once

#include <vector>

#include "src/part/core/bucket_array.h"
#include "src/part/kway/kway_state.h"

namespace vlsipart {

struct KwayFmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  std::size_t passes = 0;
  std::size_t total_moves = 0;
};

class KwayFmRefiner {
 public:
  /// Stop after `max_passes` passes even if still improving; <= 0 runs
  /// passes until one does not improve.
  KwayFmRefiner(const KwayProblem& problem, int max_passes);

  /// Refine in place; never worsens the cut, preserves feasibility.
  KwayFmResult refine(KwayState& state);

 private:
  struct MoveRecord {
    VertexId v;
    PartId from;
  };

  struct Target {
    PartId to = kNoPart;
    Gain gain = 0;
  };

  /// Best-gain target for v given current weights, with its gain; `to` is
  /// kNoPart if no target is legal.  Prefers the highest gain; ties
  /// broken by lowest part id (deterministic).
  Target best_target(const KwayState& state, VertexId v,
                     bool require_legal) const;
  bool target_legal(const KwayState& state, VertexId v, PartId to) const;

  Weight run_pass(KwayState& state);

  const KwayProblem* problem_;
  int max_passes_;
  Gain max_abs_gain_ = 0;

  /// Candidate moves live in the same SoA bucket kernel the 2-way
  /// refiner uses (bucket_array.h), instantiated as a single pool:
  /// sentinel-threaded branchless bucket lists, derived keys, sparse
  /// reset, descending max cursor.  target_[v] carries the candidate's
  /// destination part alongside the pool key.
  BucketArray<1> pool_;
  std::vector<PartId> target_;
  /// Cached best target over all parts, legal or not, and its gain.
  /// The pool candidate differs from it only after a downgrade to the
  /// best legal target; the next neighbor update restores it.
  std::vector<Target> best_;
  /// Move number (1-based, within the pass) at which v's cache was last
  /// recomputed: a pin on several changed nets is recomputed once.
  std::vector<std::uint32_t> fresh_at_;
  std::vector<std::uint8_t> locked_;

  void pool_insert(VertexId v, Gain key, PartId target);
  VertexId pool_top_head() const;

  std::vector<MoveRecord> move_order_;
};

}  // namespace vlsipart
