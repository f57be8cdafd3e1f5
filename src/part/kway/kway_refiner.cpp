#include "src/part/kway/kway_refiner.h"

#include <algorithm>

#include "src/util/checked_narrow.h"
#include "src/util/logging.h"
#include "src/util/prefetch.h"

namespace vlsipart {

namespace {
/// Same pin-walk prefetch policy as the 2-way refiner (fm_refiner.cpp):
/// hint only on nets large enough that the per-pin metadata gather
/// dominates the walk.
constexpr std::size_t kPinPrefetchDistance = 8;
constexpr std::size_t kPinPrefetchMinPins = 16;
}  // namespace

KwayFmRefiner::KwayFmRefiner(const KwayProblem& problem, KwayFmConfig config)
    : problem_(&problem),
      config_(config),
      pool_(problem.graph->num_vertices()) {
  max_abs_gain_ = problem.graph->max_weighted_degree();
  const std::size_t n = problem.graph->num_vertices();
  target_.assign(n, kNoPart);
  best_.assign(n, Target{});
  fresh_at_.assign(n, 0);
  locked_.assign(n, 0);
  use_lookahead_ = config_.lookahead_depth > 1;
}

void KwayFmRefiner::level_gains(const KwayState& state, VertexId v,
                                std::vector<Gain>& out) const {
  // Level gains of the direction (v: from -> to), computed on the
  // from/to two-block projection of each net — the natural restriction
  // of Krishnamurthy's binding numbers [30] to one k-way move direction,
  // as in Sanchis's k-way extension [32].  Exactly the 2-way definition
  // when k = 2.
  const Hypergraph& h = *problem_->graph;
  const PartId from = state.part(v);
  const PartId to = target_[v];
  const auto depth = static_cast<std::size_t>(config_.lookahead_depth);
  const std::size_t k = state.k();
  out.assign(depth - 1, 0);  // hot-path: allow(reused scratch, bounded by lookahead depth)
  for (const EdgeId e : h.incident_edges(v)) {
    // Nets with pins outside {from, to} cannot be uncut by from/to
    // moves alone; skip them.
    const std::uint32_t in_from = state.pins_in(e, from);
    const std::uint32_t in_to = state.pins_in(e, to);
    bool outside = false;
    for (PartId p = 0; p < static_cast<PartId>(k); ++p) {
      if (p != from && p != to && state.pins_in(e, p) > 0) {
        outside = true;
        break;
      }
    }
    if (outside) continue;
    const Weight w = h.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k;
    const std::uint32_t locked_from = locked_in_[base + from];
    const std::uint32_t locked_to = locked_in_[base + to];
    if (locked_from == 0) {
      const std::uint32_t free_from = in_from;
      if (in_to > 0 && free_from >= 2 && free_from <= depth) {
        out[free_from - 2] += w;
      }
    }
    if (locked_to == 0) {
      const std::uint32_t free_to = in_to;
      if (free_to >= 1 && free_to + 1 <= depth) {
        out[free_to - 1] -= w;
      }
    }
  }
}

VertexId KwayFmRefiner::lookahead_pick(const KwayState& state,
                                       VertexId head) const {
  VertexId best = kInvalidVertex;
  std::vector<Gain> best_vec;
  std::vector<Gain> vec;
  std::size_t scanned = 0;
  for (VertexId v = head;
       v != kInvalidVertex && scanned < config_.lookahead_scan_limit;
       v = pool_.next(v), ++scanned) {
    if (!target_legal(state, v, target_[v])) continue;
    level_gains(state, v, vec);
    if (best == kInvalidVertex || vec > best_vec) {
      best = v;
      best_vec = vec;
    }
  }
  return best;
}

void KwayFmRefiner::pool_insert(VertexId v, Gain key, PartId target) {
  key = std::clamp(key, -max_abs_gain_, max_abs_gain_);
  target_[v] = target;
  pool_.push_front(v, 0, key);  // LIFO
}

VertexId KwayFmRefiner::pool_top_head() const {
  if (pool_.empty()) return kInvalidVertex;
  return pool_.front(0, pool_.max_key(0));
}

bool KwayFmRefiner::target_legal(const KwayState& state, VertexId v,
                                 PartId to) const {
  const Weight w = problem_->graph->vertex_weight(v);
  return state.part_weight(to) + w <= problem_->max_part &&
         state.part_weight(state.part(v)) - w >= problem_->min_part;
}

KwayFmRefiner::Target KwayFmRefiner::best_target(const KwayState& state,
                                                 VertexId v,
                                                 bool require_legal) const {
  const PartId from = state.part(v);
  Target best;
  for (PartId t = 0; t < static_cast<PartId>(state.k()); ++t) {
    if (t == from) continue;
    if (require_legal && !target_legal(state, v, t)) continue;
    const Gain g = state.gain(v, t);
    if (best.to == kNoPart || g > best.gain) best = {t, g};
  }
  return best;
}

// hot-path: root
Weight KwayFmRefiner::run_pass(KwayState& state, Rng& rng) {
  (void)rng;  // deterministic pass; parameter kept for parity/extension
  const Hypergraph& h = *problem_->graph;
  const std::size_t n = h.num_vertices();

  pool_.reset(max_abs_gain_);
  std::fill(locked_.begin(), locked_.end(), 0);
  std::fill(fresh_at_.begin(), fresh_at_.end(), 0);
  move_order_.clear();
  if (use_lookahead_) {
    locked_in_.assign(h.num_edges() * state.k(), 0);  // hot-path: allow(per-pass reset of reused buffer)
    // Fixed vertices never move: binding numbers see them as locked.
    for (std::size_t v = 0; v < n; ++v) {
      const auto vid = static_cast<VertexId>(v);
      if (!problem_->is_fixed(vid)) continue;
      for (const EdgeId e : h.incident_edges(vid)) {
        ++locked_in_[static_cast<std::size_t>(e) * state.k() +
                     state.part(vid)];
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    const auto vid = static_cast<VertexId>(v);
    if (problem_->is_fixed(vid)) continue;
    best_[vid] = best_target(state, vid, /*require_legal=*/false);
    pool_insert(vid, best_[vid].gain, best_[vid].to);
  }

  const Weight cut_before = state.cut();
  Weight best_cut = cut_before;
  std::size_t best_prefix = 0;
  std::size_t moves_since_best = 0;

  while (!pool_.empty()) {
    VertexId v = pool_top_head();
    if (v == kInvalidVertex) break;
    if (use_lookahead_) {
      // Sanchis level-gain tie-breaking among the top bucket's legal
      // candidates; fall back to the head when none has a legal target.
      const VertexId pick = lookahead_pick(state, v);
      if (pick != kInvalidVertex) v = pick;
    }

    PartId to = target_[v];
    if (!target_legal(state, v, to)) {
      // Downgrade to the best *legal* target; keys only decrease, so
      // reinsertion makes progress.
      const Target legal = best_target(state, v, /*require_legal=*/true);
      if (legal.to == kNoPart) {
        pool_.erase(v);
        continue;
      }
      to = legal.to;
      if (legal.gain < pool_.key(v)) {
        pool_.erase(v);
        pool_insert(v, legal.gain, to);
        continue;
      }
      // Equal key with a legal target: fall through and take it.
    }

    pool_.erase(v);
    locked_[v] = 1;
    const PartId from = state.part(v);
    state.move(v, to);
    move_order_.push_back({v, from});  // hot-path: allow(move log, geometric growth amortized over passes)
    if (use_lookahead_) {
      for (const EdgeId e : h.incident_edges(v)) {
        ++locked_in_[static_cast<std::size_t>(e) * state.k() + to];
      }
    }

    // Exact update of every free neighbor's best candidate.  A pin's gain
    // toward any target changes only on a net whose from count fell to
    // <= 1 or whose to count rose to <= 2: KwayState::gain reads the
    // counts only at their 0/1 thresholds.  So each pin's cached best is
    // recomputed once per move, at its first visit through such a net,
    // and reused on every other net.  Every visit still erases the pin and
    // pushes it to the front of its bucket.  A pin met first on an
    // unchanged net is pushed with its old key, but its later visit
    // pushes it again, and only a pin's last push fixes its place: the
    // pool order, and every tie, is the one a recompute per visit gives.
    const auto stamp = vp::checked_narrow<std::uint32_t>(move_order_.size());
    for (const EdgeId e : h.incident_edges(v)) {
      const bool changed =
          state.pins_in(e, from) <= 1 || state.pins_in(e, to) <= 2;
      const auto pins = h.pins(e);
      const std::size_t prefetch_end =
          pins.size() >= kPinPrefetchMinPins
              ? pins.size() - kPinPrefetchDistance
              : 0;
      for (std::size_t j = 0; j < pins.size(); ++j) {
        if (j < prefetch_end) {
          const VertexId ahead = pins[j + kPinPrefetchDistance];
          pool_.prefetch(ahead);
          VP_PREFETCH_READ(&locked_[ahead]);
        }
        const VertexId y = pins[j];
        if (y == v || locked_[y] || !pool_.contains(y)) continue;
        if (changed && fresh_at_[y] != stamp) {
          fresh_at_[y] = stamp;
          best_[y] = best_target(state, y, /*require_legal=*/false);
        }
        pool_.erase(y);
        pool_insert(y, best_[y].gain, best_[y].to);
      }
    }

    const Weight cut = state.cut();
    if (cut < best_cut) {
      best_cut = cut;
      best_prefix = move_order_.size();
      moves_since_best = 0;
    } else {
      ++moves_since_best;
      if (config_.max_moves_past_best > 0 &&
          moves_since_best >= config_.max_moves_past_best) {
        break;
      }
    }
  }

  for (std::size_t i = move_order_.size(); i > best_prefix; --i) {
    state.move(move_order_[i - 1].v, move_order_[i - 1].from);
  }
  return cut_before - state.cut();
}

KwayFmResult KwayFmRefiner::refine(KwayState& state, Rng& rng) {
  KwayFmResult result;
  result.initial_cut = state.cut();
  int passes = 0;
  while (true) {
    const std::size_t moves_before = move_order_.size();
    const Weight improvement = run_pass(state, rng);
    (void)moves_before;
    result.total_moves += move_order_.size();
    ++passes;
    if (improvement <= 0) break;
    if (config_.max_passes > 0 && passes >= config_.max_passes) break;
  }
  result.passes = static_cast<std::size_t>(passes);
  result.final_cut = state.cut();
  return result;
}

}  // namespace vlsipart
