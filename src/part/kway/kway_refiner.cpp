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

KwayFmRefiner::KwayFmRefiner(const KwayProblem& problem, int max_passes)
    : problem_(&problem),
      max_passes_(max_passes),
      pool_(problem.graph->num_vertices()) {
  max_abs_gain_ = problem.graph->max_weighted_degree();
  const std::size_t n = problem.graph->num_vertices();
  target_.assign(n, kNoPart);
  best_.assign(n, Target{});
  fresh_at_.assign(n, 0);
  locked_.assign(n, 0);
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
Weight KwayFmRefiner::run_pass(KwayState& state) {
  const Hypergraph& h = *problem_->graph;
  const std::size_t n = h.num_vertices();

  pool_.reset(max_abs_gain_);
  std::fill(locked_.begin(), locked_.end(), 0);
  std::fill(fresh_at_.begin(), fresh_at_.end(), 0);
  move_order_.clear();

  for (std::size_t v = 0; v < n; ++v) {
    const auto vid = static_cast<VertexId>(v);
    if (problem_->is_fixed(vid)) continue;
    best_[vid] = best_target(state, vid, /*require_legal=*/false);
    pool_insert(vid, best_[vid].gain, best_[vid].to);
  }

  const Weight cut_before = state.cut();
  Weight best_cut = cut_before;
  std::size_t best_prefix = 0;

  while (!pool_.empty()) {
    const VertexId v = pool_top_head();
    if (v == kInvalidVertex) break;

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
    }
  }

  for (std::size_t i = move_order_.size(); i > best_prefix; --i) {
    state.move(move_order_[i - 1].v, move_order_[i - 1].from);
  }
  return cut_before - state.cut();
}

KwayFmResult KwayFmRefiner::refine(KwayState& state) {
  KwayFmResult result;
  result.initial_cut = state.cut();
  int passes = 0;
  while (true) {
    const Weight improvement = run_pass(state);
    result.total_moves += move_order_.size();
    ++passes;
    if (improvement <= 0) break;
    if (max_passes_ > 0 && passes >= max_passes_) break;
  }
  result.passes = static_cast<std::size_t>(passes);
  result.final_cut = state.cut();
  return result;
}

}  // namespace vlsipart
