#include "src/part/core/fm_refiner.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>

#include "src/part/core/invariant_audit.h"
#include "src/util/logging.h"
#include "src/util/prefetch.h"

namespace vlsipart {

namespace {
/// At most this many entries of a bucket are scanned when lookahead
/// tie-breaking is active (bounds the per-selection cost).  A constant:
/// in the knobs audit (EXPERIMENTS.md) neither 4 nor 64 lowered the cut.
constexpr std::size_t kLookaheadScanLimit = 16;

/// Pin-walk prefetch distance, and the minimum net size that pays for
/// the extra prefetch instruction.  Small nets (the 3-5 pin typical
/// case) fit the walk in flight anyway; the gather-heavy huge
/// clock/reset-class nets are where the per-pin bucket-slot loads miss
/// cache and the hint overlaps them.
constexpr std::size_t kPinPrefetchDistance = 8;
constexpr std::size_t kPinPrefetchMinPins = 16;

/// Stable ascending sort of `order` by key[v]: an LSD radix sort over
/// key - min(key), one byte per pass, ping-ponging with the equally
/// sized `scratch`.  Each pass is O(n + 256) and only
/// the bytes the key spread occupies get a pass (at most eight, one for
/// unit-weight gains), so the cost never scales with the size of the
/// key range.  Same order as std::stable_sort with operator<.
void stable_sort_by_key(std::vector<VertexId>& order,
                        const std::vector<Gain>& key,
                        std::vector<VertexId>& scratch) {
  if (order.empty()) return;
  const auto [lo, hi] = std::minmax_element(key.begin(), key.end());
  const Gain min_key = *lo;
  const auto spread = static_cast<std::uint64_t>(*hi - min_key);
  VP_DCHECK(scratch.size() == order.size(), "radix scratch sized to order");
  for (unsigned shift = 0; shift < 64 && (spread >> shift) != 0;
       shift += 8) {
    std::array<std::size_t, 257> start{};
    const auto digit = [&](VertexId v) {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(key[v] - min_key) >> shift) & 0xff);
    };
    for (const VertexId v : order) ++start[digit(v) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const VertexId v : order) scratch[start[digit(v)]++] = v;
    order.swap(scratch);
  }
}
}  // namespace

FmRefiner::FmRefiner(const PartitionProblem& problem, FmConfig config)
    : problem_(&problem),
      config_(config),
      audit_(AuditConfig::resolve(config.audit)),
      container_(problem.graph->num_vertices(), config.insert_order),
      locked_(problem.graph->num_vertices(), 0),
      sort_scratch_(problem.graph->num_vertices()) {
  // Keys are bounded by the weighted degree for classic FM and by twice
  // the weighted degree for CLIP (cumulative delta gain = actual gain
  // minus initial gain).  Size the bucket range for the worst case.
  max_abs_gain_ = 2 * problem.graph->max_weighted_degree();
  use_lookahead_ = config_.lookahead_depth > 1 && !config_.clip;
}

void FmRefiner::lookahead_vector(const PartitionState& state, VertexId v,
                                 std::vector<Gain>& out) const {
  const Hypergraph& h = *problem_->graph;
  const PartId from = state.part(v);
  const PartId to = from ^ 1;
  const auto depth = static_cast<std::size_t>(config_.lookahead_depth);
  out.assign(depth - 1, 0);  // hot-path: allow(reused scratch, bounded by lookahead depth)
  for (const EdgeId e : h.incident_edges(v)) {
    const Weight w = h.edge_weight(e);
    const std::uint32_t locked_from = locked_pins_[from][e];
    const std::uint32_t locked_to = locked_pins_[to][e];
    // Binding number beta_X(n): free pins of n in X, infinite (never
    // counted) when X holds a locked pin of n [30].
    if (locked_from == 0) {
      const std::uint32_t free_from = state.pins_in(e, from);
      if (free_from >= 2 && free_from <= depth) {
        out[free_from - 2] += w;  // level-k positive term, k = free_from
      }
    }
    if (locked_to == 0) {
      // Binding-number invariant: beta_to counts only *free* pins, but
      // this branch runs only when the to-side holds no locked pin of e,
      // so every to-side pin is free and the raw pin count IS the
      // binding number (no locked-pin subtraction needed).
      const std::uint32_t free_to = state.pins_in(e, to);
      if (free_to >= 1 && free_to + 1 <= depth) {
        out[free_to - 1] -= w;  // level-(free_to+1) negative term
      }
    }
  }
}

VertexId FmRefiner::best_lookahead_move(const PartitionState& state,
                                        VertexId head) const {
  VertexId best = kInvalidVertex;
  std::vector<Gain>& best_vec = la_best_vec_;
  std::vector<Gain>& vec = la_vec_;
  best_vec.clear();
  std::size_t scanned = 0;
  for (VertexId v = head;
       v != kInvalidVertex && scanned < kLookaheadScanLimit;
       v = container_.next_in_bucket(v), ++scanned) {
    if (!move_allowed(state, v)) continue;
    lookahead_vector(state, v, vec);
    if (best == kInvalidVertex || vec > best_vec) {
      best = v;
      best_vec = vec;
    }
  }
  return best;
}

void FmRefiner::run_in_pass_audit(const PartitionState& state) const {
  FmAuditView view;
  view.problem = problem_;
  view.config = &config_;
  view.state = &state;
  view.container = &container_;
  view.initial_gain = initial_gain_;
  view.locked = locked_;
  view.locked_in = use_lookahead_ ? &locked_pins_ : nullptr;
  audit_mid_pass(view);  // hot-path: allow(audit mode only, disabled in timed runs)
}

Weight FmRefiner::imbalance(Weight w0) const {
  const BalanceConstraint& b = problem_->balance;
  if (w0 < b.min_part()) return b.min_part() - w0;
  if (w0 > b.max_part()) return w0 - b.max_part();
  return 0;
}

bool FmRefiner::move_allowed(const PartitionState& state, VertexId v) const {
  const Weight w = problem_->graph->vertex_weight(v);
  const Weight w0 = state.part_weight(0);
  const PartId from = state.part(v);
  if (problem_->balance.move_legal(w0, w, from)) return true;
  // Recovery rule: from an infeasible state, allow any move that strictly
  // reduces the balance violation (needed when a coarse solution projects
  // to an infeasible fine solution during uncoarsening).
  const Weight new_w0 = (from == 0) ? w0 - w : w0 + w;
  return imbalance(new_w0) < imbalance(w0);
}

FmRefiner::Candidate FmRefiner::select_from_side(const PartitionState& state,
                                                 PartId side) const {
  Candidate cand;
  if (container_.size(side) == 0) return cand;
  Gain key = container_.max_key(side);
  while (key >= container_.min_representable_key()) {
    VertexId v = container_.bucket_head(side, key);
    if (v == kInvalidVertex) {
      key = container_.next_nonempty_below(side, key);
      continue;
    }
    if (use_lookahead_) {
      // Krishnamurthy tie-breaking [30]: among the (equal-key) moves at
      // the top of this bucket, take the legal one with the largest
      // level-2..r lookahead vector.
      const VertexId pick = best_lookahead_move(state, v);
      if (pick != kInvalidVertex) {
        cand.v = pick;
        cand.key = key;
        cand.valid = true;
        return cand;
      }
      if (config_.illegal_head == IllegalHeadPolicy::kSkipSide) return cand;
      key = container_.next_nonempty_below(side, key);
      continue;
    }
    // "FM-based partitioners typically look at only the first move in a
    // bucket" (Sec. 2.3): if the head is illegal, skip the bucket (or the
    // whole side), unless look_beyond_first walks the list.
    while (v != kInvalidVertex) {
      if (move_allowed(state, v)) {
        cand.v = v;
        cand.key = key;
        cand.valid = true;
        return cand;
      }
      if (!config_.look_beyond_first) break;
      v = container_.next_in_bucket(v);
    }
    if (!config_.look_beyond_first &&
        config_.illegal_head == IllegalHeadPolicy::kSkipSide) {
      return cand;  // abandon the side entirely
    }
    key = container_.next_nonempty_below(side, key);
  }
  return cand;
}

FmRefiner::Candidate FmRefiner::select_move(const PartitionState& state,
                                            PartId last_from) const {
  const Candidate c0 = select_from_side(state, 0);
  const Candidate c1 = select_from_side(state, 1);
  if (!c0.valid) return c1;
  if (!c1.valid) return c0;
  if (c0.key != c1.key) return c0.key > c1.key ? c0 : c1;
  // Equal highest keys on both sides: the tie-break the paper studies.
  switch (config_.tie_break) {
    case TieBreak::kPart0:
      return c0;
    case TieBreak::kAway:
      // Prefer the side that is NOT the last move's source; before any
      // move has been made, fall back to partition 0 (deterministic).
      if (last_from == kNoPart) return c0;
      return last_from == 0 ? c1 : c0;
    case TieBreak::kToward:
      if (last_from == kNoPart) return c0;
      return last_from == 0 ? c0 : c1;
  }
  return c0;
}

// hot-path: root
FmPassStats FmRefiner::run_pass(PartitionState& state, PassCarry& carry,
                                Rng& rng) {
  const Hypergraph& h = *problem_->graph;
  const std::size_t n = h.num_vertices();
  VP_CHECK(n <= kInvalidVertex, "vertex count " << n << " fits VertexId");
  FmPassStats stats;
  stats.cut_before = state.cut();

  container_.reset(max_abs_gain_);
  std::fill(locked_.begin(), locked_.end(), 0);
  move_order_.clear();
  current_trace_.clear();
  if (use_lookahead_) {
    locked_pins_[0].assign(h.num_edges(), 0);  // hot-path: allow(per-pass reset of reused buffer)
    locked_pins_[1].assign(h.num_edges(), 0);  // hot-path: allow(per-pass reset of reused buffer)
    // Fixed and excluded vertices never move: treat them as locked so
    // binding numbers see them as immovable pins.
    for (VertexId vid = 0; vid < n; ++vid) {
      const bool immovable =
          problem_->is_fixed(vid) ||
          (config_.exclude_oversized &&
           h.vertex_weight(vid) > problem_->balance.window());
      if (!immovable) continue;
      for (const EdgeId e : h.incident_edges(vid)) {
        ++locked_pins_[state.part(vid)][e];
      }
    }
  }

  // Build the gain container.  Fixed vertices never enter; oversized
  // vertices are excluded when the corking fix is on.
  const Weight window = problem_->balance.window();
  std::vector<VertexId>& order = build_order_;
  order.resize(n);  // hot-path: allow(per-pass reset of reused buffer)
  std::iota(order.begin(), order.end(), 0);
  std::vector<Gain>& initial_gain = initial_gain_;
  if (carry.gains_valid) {
    // The previous pass replayed its kept prefix onto initial_gain_, so
    // it already holds every vertex's gain in this state.
    if (audit_.enabled()) audit_pass_start_gains(state, initial_gain);
  } else {
    initial_gain.resize(n);  // hot-path: allow(per-pass reset of reused buffer)
    for (VertexId v = 0; v < n; ++v) initial_gain[v] = state.gain(v);
  }
  carry.snapshot = state;  // reuses the buffers after the first pass
  if (config_.clip) {
    // CLIP builds the zero-gain buckets with the highest-initial-gain
    // cells at the heads [15]: insert in ascending initial-gain order so
    // head-insertion leaves the largest at the front.
    stable_sort_by_key(order, initial_gain, sort_scratch_);
  }
  for (const VertexId v : order) {
    if (problem_->is_fixed(v)) continue;
    if (config_.exclude_oversized && h.vertex_weight(v) > window) {
      ++stats.oversized_excluded;
      continue;
    }
    if (config_.clip) {
      // Faithful CLIP head ordering (highest initial gain at the head of
      // the zero-gain bucket) requires head insertion for the initial
      // build regardless of the update-time insertion policy.
      container_.insert_at_head(v, state.part(v), /*key=*/0);
    } else {
      container_.insert(v, state.part(v), initial_gain[v], rng);
    }
  }

  // A freshly built container must agree with a from-scratch recompute
  // before the first move — catches build-time bugs at the source.
  if (audit_.enabled()) run_in_pass_audit(state);

  // Best-prefix tracking.  Key = (imbalance, cut); tie-break per policy.
  Weight best_cut = stats.cut_before;
  Weight best_imb = imbalance(state.part_weight(0));
  auto slack = [&]() {
    const Weight w0 = state.part_weight(0);
    return std::min(problem_->balance.max_part() - w0,
                    w0 - problem_->balance.min_part());
  };
  Weight best_slack = slack();
  std::size_t best_prefix = 0;
  PartId last_from = kNoPart;

  // Under the All-dgain policy even a zero-delta neighbor is reinserted
  // (shuffling its bucket position and consuming rng), so every incident
  // net must be walked.  Under Nonzero, a zero-delta walk is a no-op and
  // non-critical nets can be skipped wholesale.
  const bool can_skip_noncritical =
      config_.zero_gain_update != ZeroGainUpdate::kAll;

  while (true) {
    const Candidate cand = select_move(state, last_from);
    if (!cand.valid) {
      stats.stalled = !container_.empty();
      break;
    }
    const VertexId v = cand.v;
    const PartId from = state.part(v);

    container_.remove(v);
    locked_[v] = 1;

    // Apply the move and, in the same walk over v's nets, run the
    // "four cut values" delta-gain update for every free pin of every
    // *critical* incident net (Sec. 2.2).
    const auto nets = h.incident_edges(v);
    if (use_lookahead_) {
      // v is now locked on its destination side.
      for (const EdgeId e : nets) {
        ++locked_pins_[from ^ 1][e];
      }
    }
    state.move(v, [&](EdgeId e, std::uint32_t old_from,
                      std::uint32_t old_to) {
      // Net-state filter: if the source side keeps >= 2 pins after the
      // move (old >= 3) and the destination side already had >= 2, the
      // net is non-critical before AND after — every pin's delta is
      // provably zero, so the O(pins) walk is pure overhead.  This turns
      // huge clock/reset-class nets from O(pins) per move into O(1) for
      // almost every move.
      if (can_skip_noncritical && old_from >= 3 && old_to >= 2) {
        ++stats.nets_skipped_noncritical;
        return;
      }
      ++stats.nets_walked;
      const NetGainDelta d = net_gain_delta(old_from, old_to, h.edge_weight(e));
      const auto pins = h.pins(e);
      const std::size_t prefetch_end =
          pins.size() >= kPinPrefetchMinPins
              ? pins.size() - kPinPrefetchDistance
              : 0;
      for (std::size_t j = 0; j < pins.size(); ++j) {
        if (j < prefetch_end) {
          container_.prefetch(pins[j + kPinPrefetchDistance]);
        }
        // The container holds exactly the free pins: v, locked, fixed
        // and excluded vertices are absent, and a contained vertex's
        // side is its part.
        const VertexId y = pins[j];
        if (!container_.contains(y)) continue;
        const Gain delta = container_.side_of(y) == from ? d.on_from : d.on_to;
        if (delta != 0) {
          container_.update_key(y, delta, rng);
          ++stats.nonzero_delta_updates;
        } else if (config_.zero_gain_update == ZeroGainUpdate::kAll) {
          container_.reinsert(y, rng);
          ++stats.zero_delta_updates;
        }
      }
    });
    last_from = from;
    move_order_.push_back(v);  // hot-path: allow(move log, geometric growth amortized over passes)
    ++stats.moves_made;

    // Best-prefix bookkeeping.
    const Weight cut = state.cut();
    if (config_.record_trace) current_trace_.push_back(cut);  // hot-path: allow(trace recording, reused buffer)
    const Weight imb = imbalance(state.part_weight(0));
    const Weight slk = slack();
    bool better = false;
    if (imb != best_imb) {
      better = imb < best_imb;
    } else if (cut != best_cut) {
      better = cut < best_cut;
    } else {
      switch (config_.best_choice) {
        case BestChoice::kFirst:
          better = false;
          break;
        case BestChoice::kLast:
          better = true;
          break;
        case BestChoice::kBalance:
          better = slk > best_slack;
          break;
      }
    }
    if (audit_.mode == AuditMode::kPerMoves &&
        stats.moves_made % audit_.every_moves == 0) {
      run_in_pass_audit(state);
    }

    if (better) {
      best_cut = cut;
      best_imb = imb;
      best_slack = slk;
      best_prefix = move_order_.size();
    }
  }

  // The container (and, under lookahead, the locked-pin counts) must
  // still agree with a from-scratch recompute at the end of the move
  // sequence — every delta-gain update of the pass is on trial here.
  if (audit_.enabled()) run_in_pass_audit(state);

  // Roll back to the best prefix: undo the rejected tail move by move,
  // or, when the kept prefix is at most half the moves, restore the
  // pass-start copy and replay the prefix.  The replay also carries initial_gain_
  // forward to the next pass's initial gains: each critical net adds its
  // four-cut-values delta to every other pin, and the mover's gain
  // changes sign.
  carry.gains_valid = best_prefix <= move_order_.size() / 2;
  if (carry.gains_valid) {
    state = *carry.snapshot;
    for (std::size_t i = 0; i < best_prefix; ++i) {
      const VertexId v = move_order_[i];
      const PartId from = state.part(v);
      state.move(v, [&](EdgeId e, std::uint32_t old_from,
                        std::uint32_t old_to) {
        if (old_from >= 3 && old_to >= 2) return;  // every delta is zero
        const NetGainDelta d =
            net_gain_delta(old_from, old_to, h.edge_weight(e));
        for (const VertexId y : h.pins(e)) {
          if (y == v) continue;
          initial_gain[y] += state.part(y) == from ? d.on_from : d.on_to;
        }
      });
      initial_gain[v] = -initial_gain[v];
    }
  } else {
    for (std::size_t i = move_order_.size(); i > best_prefix; --i) {
      state.move(move_order_[i - 1]);
    }
  }
  stats.moves_kept = best_prefix;
  stats.cut_after = state.cut();
  stats.zero_move_pass = (stats.moves_made == 0);
  return stats;
}

FmResult FmRefiner::refine(PartitionState& state, Rng& rng) {
  FmResult result;
  result.initial_cut = state.cut();
  int pass_count = 0;
  Weight imb_before = imbalance(state.part_weight(0));
  PassCarry carry;  // freed on return: nothing carries across calls
  while (true) {
    FmPassStats stats = run_pass(state, carry, rng);
    ++pass_count;
    result.total_moves += stats.moves_made;
    if (stats.zero_move_pass) ++result.zero_move_passes;
    if (stats.stalled) ++result.stalled_passes;
    if (audit_.enabled()) {
      // Re-derive pin counts, cut and weights from the assignment and
      // hold the pass to its rollback guarantees (never-worse balance
      // violation; never-worse cut at equal violation).
      audit_pass_boundary(*problem_, state, imb_before, stats.cut_before);
    }
    const Weight imb_after = imbalance(state.part_weight(0));
    // Keep passing while the pass improved either the balance violation
    // or (at equal violation) the cut.
    const bool improved =
        stats.moves_kept > 0 &&
        (imb_after < imb_before ||
         (imb_after == imb_before && stats.cut_after < stats.cut_before));
    imb_before = imb_after;
    result.pass_stats.push_back(std::move(stats));
    if (config_.record_trace) {
      result.pass_traces.push_back(std::move(current_trace_));
      current_trace_.clear();
    }
    if (!improved) break;
    if (config_.max_passes > 0 && pass_count >= config_.max_passes) break;
  }
  result.passes = static_cast<std::size_t>(pass_count);
  result.final_cut = state.cut();
  return result;
}

}  // namespace vlsipart
