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
// search per pin.  (Sanchis's full scheme adds Krishnamurthy level
// gains per direction; this implementation is the standard first-order
// variant, which is what later k-way partitioners adopted.)
//
// Used to polish recursive-bisection solutions: RB fixes the block
// hierarchy top-down and cannot move a vertex between cousin blocks;
// direct k-way passes can.
#pragma once

#include <vector>

#include "src/part/core/bucket_array.h"
#include "src/part/kway/kway_state.h"
#include "src/util/rng.h"

namespace vlsipart {

struct KwayFmConfig {
  /// Stop after this many passes even if still improving; <= 0 = until
  /// no improvement.
  int max_passes = -1;
  /// Abandon a pass after this many consecutive non-improving moves
  /// (0 = full pass).
  std::size_t max_moves_past_best = 0;
  /// Sanchis level gains [32]: 1 = first-order only; r > 1 breaks ties
  /// among equal-gain candidates at the top bucket by comparing
  /// Krishnamurthy-style level-2..r gains of the stored (vertex, target)
  /// directions lexicographically.
  int lookahead_depth = 1;
  /// Bucket-scan bound when lookahead tie-breaking is active.
  std::size_t lookahead_scan_limit = 8;
};

struct KwayFmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  std::size_t passes = 0;
  std::size_t total_moves = 0;
};

class KwayFmRefiner {
 public:
  KwayFmRefiner(const KwayProblem& problem, KwayFmConfig config);

  /// Refine in place; never worsens the cut, preserves feasibility.
  KwayFmResult refine(KwayState& state, Rng& rng);

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

  /// Level-2..r gains of moving v toward target_[v] (binding numbers
  /// over free/locked per-part pin counts, Sanchis [32]).
  void level_gains(const KwayState& state, VertexId v,
                   std::vector<Gain>& out) const;
  /// Among the first lookahead_scan_limit pool entries of the top
  /// bucket, the one with the lexicographically largest level-gain
  /// vector whose stored target is legal; kInvalidVertex if none.
  VertexId lookahead_pick(const KwayState& state, VertexId head) const;

  Weight run_pass(KwayState& state, Rng& rng);

  const KwayProblem* problem_;
  KwayFmConfig config_;
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
  /// Per-(edge, part) locked pin counts (e * k + p); maintained only
  /// when level-gain tie-breaking is active.
  std::vector<std::uint32_t> locked_in_;
  bool use_lookahead_ = false;

  void pool_insert(VertexId v, Gain key, PartId target);
  VertexId pool_top_head() const;

  std::vector<MoveRecord> move_order_;
};

}  // namespace vlsipart
