#include "src/part/nlevel/nlevel_partitioner.h"

#include <utility>

namespace vlsipart {
namespace {

/// Nets larger than this contribute nothing to heavy-edge ratings.  A
/// constant: in the knobs audit (EXPERIMENTS.md) neither 16 nor 256
/// lowered the cut.
constexpr std::size_t kMaxRatedNetSize = 64;

}  // namespace

NlevelPartitioner::NlevelPartitioner(NlevelConfig config)
    : config_(config) {}

std::unique_ptr<Bipartitioner> NlevelPartitioner::clone() const {
  return std::make_unique<NlevelPartitioner>(config_);
}

bool NlevelPartitioner::movable(const PartitionProblem& problem,
                                VertexId c) const {
  if (!problem.fixed.empty() && problem.fixed[c] != kNoPart) return false;
  // A cluster heavier than the balance window can never move between two
  // feasible solutions (the corking exclusion, Sec. 2.3).
  return graph_.cluster_weight(c) <= problem.balance.window();
}

VertexId NlevelPartitioner::best_partner(VertexId u, Weight max_cw,
                                         const std::vector<PartId>& fixed,
                                         double* rating_out) {
  rated_.clear();
  for (const EdgeId e : graph_.incident_edges(u)) {
    const std::size_t sz = graph_.edge_size(e);
    if (sz < 2 || sz > kMaxRatedNetSize) continue;
    const double score = static_cast<double>(graph_.edge_weight(e)) /
                         static_cast<double>(sz - 1);
    for (const VertexId c : graph_.pins(e)) {
      if (c == u) continue;
      if (rating_[c] == 0.0) rated_.push_back(c);
      rating_[c] += score;
    }
  }
  double best_r = 0.0;
  VertexId best = kInvalidVertex;
  const Weight wu = graph_.cluster_weight(u);
  for (const VertexId c : rated_) {
    const double r = rating_[c];
    rating_[c] = 0.0;
    if (!fixed.empty() && fixed[c] != kNoPart) continue;
    if (wu + graph_.cluster_weight(c) > max_cw) continue;
    if (best == kInvalidVertex || r > best_r || (r == best_r && c < best)) {
      best_r = r;
      best = c;
    }
  }
  *rating_out = best_r;
  return best;
}

void NlevelPartitioner::coarsen(const PartitionProblem& problem,
                                Weight max_cw) {
  const std::size_t n = graph_.num_vertices();
  const std::vector<PartId>& fixed = problem.fixed;
  // bind() enforced the 32-bit id contract; the VertexId sweep below
  // cannot wrap.
  VP_CHECK(n <= kInvalidVertex, "vertex count " << n << " fits VertexId");
  rating_.assign(n, 0.0);

  // Lazy max-heap keyed (rating desc, id asc).  Entries go stale as
  // neighborhoods contract; a popped entry is re-rated and either
  // contracted (rating not lower than advertised) or reinserted with its
  // fresh, lower rating.
  using Entry = std::pair<double, VertexId>;
  const auto lower_priority = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(lower_priority)> pq(
      lower_priority);
  for (VertexId v = 0; v < n; ++v) {
    if (!fixed.empty() && fixed[v] != kNoPart) continue;
    double r = 0.0;
    if (best_partner(v, max_cw, fixed, &r) != kInvalidVertex) {
      pq.push(Entry{r, v});
    }
  }
  while (graph_.num_active() > config_.coarsen_to && !pq.empty()) {
    const Entry top = pq.top();
    pq.pop();
    const VertexId v = top.second;
    if (!graph_.active(v)) continue;
    double r = 0.0;
    const VertexId partner = best_partner(v, max_cw, fixed, &r);
    if (partner == kInvalidVertex) continue;
    if (r < top.first) {
      pq.push(Entry{r, v});
      continue;
    }
    graph_.contract(v, partner);
    double r2 = 0.0;
    if (best_partner(v, max_cw, fixed, &r2) != kInvalidVertex) {
      pq.push(Entry{r2, v});
    }
  }
}

void NlevelPartitioner::solve_coarsest(const PartitionProblem& problem,
                                       Rng& rng) {
  const Hypergraph& h = *problem.graph;
  graph_.current_clusters(cluster_scratch_);
  const ContractionResult cr =
      contract(h, cluster_scratch_, &contraction_memory_);

  PartitionProblem coarse_problem;
  coarse_problem.graph = &cr.coarse;
  coarse_problem.balance = problem.balance;
  if (!problem.fixed.empty()) {
    // best_partner never merges a fixed vertex.
    coarse_problem.fixed = project_fixed(problem.fixed, cr.fine_to_coarse,
                                         cr.coarse.num_vertices());
  }

  FmRefiner refiner(coarse_problem, config_.refine);
  const std::vector<PartId> coarse_parts = best_of_initial_tries(
      coarse_problem, config_.refine.initial_scheme, config_.initial_tries,
      rng, [&](PartitionState& state) {
        work_.absorb(refiner.refine(state, rng).update_work());
      });

  // Cluster ids fit VertexId (bind() contract), so a VertexId counter
  // covers the whole range.
  VP_CHECK(graph_.num_vertices() <= kInvalidVertex, "cluster ids fit VertexId");
  side_.assign(graph_.num_vertices(), 0);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    if (graph_.active(v)) side_[v] = coarse_parts[cr.fine_to_coarse[v]];
  }
}

Gain NlevelPartitioner::cluster_gain(VertexId c) const {
  const PartId from = side_[c];
  Gain g = 0;
  for (const EdgeId e : graph_.incident_edges(c)) {
    const Weight w = graph_.edge_weight(e);
    const std::uint32_t* ps = &pins_side_[2 * static_cast<std::size_t>(e)];
    if (ps[from] == 1) g += w;
    if (ps[from ^ 1] == 0) g -= w;
  }
  return g;
}

void NlevelPartitioner::flip(VertexId c) {
  const PartId from = side_[c];
  const PartId to = from ^ 1;
  for (const EdgeId e : graph_.incident_edges(c)) {
    std::uint32_t* ps = &pins_side_[2 * static_cast<std::size_t>(e)];
    const Weight w = graph_.edge_weight(e);
    if (ps[to] == 0 && ps[from] > 1) {
      cut_ += w;
    } else if (ps[from] == 1 && ps[to] > 0) {
      cut_ -= w;
    }
    --ps[from];
    ++ps[to];
  }
  const Weight wt = graph_.cluster_weight(c);
  part_weight_[from] -= wt;
  part_weight_[to] += wt;
  side_[c] = to;
}

void NlevelPartitioner::audit_keys() const {
  for (const VertexId c : activated_) {
    if (!buckets_->contains(c)) continue;
    VP_CHECK(buckets_->key(c) == cluster_gain(c),
             "nlevel audit: cluster " << c << " keyed " << buckets_->key(c)
                                      << " but its gain is "
                                      << cluster_gain(c));
  }
}

void NlevelPartitioner::local_search(const PartitionProblem& problem,
                                     VertexId u, VertexId v) {
  ++epoch_;
  buckets_->reset(graph_.max_weighted_degree());
  activated_.clear();

  const auto activate = [&](VertexId c) {
    if (locked_epoch_[c] == epoch_ || buckets_->contains(c)) return;
    if (!movable(problem, c)) return;
    activated_at_[c] = activated_.size();
    activated_.push_back(c);
    buckets_->push_front(c, side_[c], cluster_gain(c));
  };
  activate(u);
  activate(v);

  // (imbalance excess, cut) — lexicographic, so a search entered with an
  // infeasible assignment prefers restoring feasibility.
  const auto state_key = [&] {
    const Weight w0 = part_weight_[0];
    Weight excess = 0;
    if (w0 > problem.balance.max_part()) excess = w0 - problem.balance.max_part();
    if (w0 < problem.balance.min_part()) excess = problem.balance.min_part() - w0;
    return std::pair<Weight, Weight>(excess, cut_);
  };

  // Highest-gain balance-legal candidate over both sides: the side with
  // the higher max key is scanned first (ties: side 0), each bucket from
  // its head.
  const auto select = [&]() -> VertexId {
    int order[2] = {0, 1};
    const bool has0 = buckets_->size(0) > 0;
    const bool has1 = buckets_->size(1) > 0;
    if (has0 && has1 && buckets_->max_key(1) > buckets_->max_key(0)) {
      order[0] = 1;
      order[1] = 0;
    } else if (!has0 && has1) {
      order[0] = 1;
      order[1] = 0;
    }
    for (const int g : order) {
      if (buckets_->size(g) == 0) continue;
      for (Gain k = buckets_->max_key(g);
           k >= buckets_->min_representable_key();
           k = buckets_->next_nonempty_below(g, k)) {
        for (VertexId c = buckets_->front(g, k); c != kInvalidVertex;
             c = buckets_->next(c)) {
          if (problem.balance.move_legal(part_weight_[0],
                                         graph_.cluster_weight(c),
                                         side_[c])) {
            return c;
          }
        }
      }
    }
    return kInvalidVertex;
  };

  local_moves_.clear();
  auto best_key = state_key();
  std::size_t best_prefix = 0;
  std::size_t since_best = 0;
  while (since_best < config_.local_moves_past_best) {
    const VertexId c = select();
    if (c == kInvalidVertex) break;
    buckets_->erase(c);
    locked_epoch_[c] = epoch_;
    flip(c);
    local_moves_.push_back(LocalMove{c});
    const auto key = state_key();
    if (key < best_key) {
      best_key = key;
      best_prefix = local_moves_.size();
      since_best = 0;
    } else {
      ++since_best;
    }
    // Delta-gain walk.  Every neighbour visit moves it to the head of
    // its (new) bucket, exactly as a full recompute would: only the key
    // passed along the way differs, so the bucket order, and with it
    // the selection order, is the same.  A cluster activated earlier in
    // this walk was keyed from the post-flip counts and takes no delta.
    const PartId to = side_[c];
    const PartId from = to ^ 1;
    const std::size_t walk_begin = activated_.size();
    for (const EdgeId e : graph_.incident_edges(c)) {
      ++work_.nets_walked;
      const std::uint32_t* ps = &pins_side_[2 * static_cast<std::size_t>(e)];
      const NetGainDelta d =
          net_gain_delta(ps[from] + 1, ps[to] - 1, graph_.edge_weight(e));
      for (const VertexId x : graph_.pins(e)) {
        if (x == c || locked_epoch_[x] == epoch_) continue;
        if (!buckets_->contains(x)) {
          activate(x);
          continue;
        }
        Gain delta = 0;
        if (activated_at_[x] < walk_begin) {
          delta = side_[x] == from ? d.on_from : d.on_to;
        }
        if (delta != 0) {
          ++work_.nonzero_delta_updates;
        } else {
          ++work_.zero_delta_updates;
        }
        buckets_->move_to(x, buckets_->key(x) + delta, /*front=*/true);
      }
    }
    if (audit_.enabled()) audit_keys();
  }
  while (local_moves_.size() > best_prefix) {
    flip(local_moves_.back().c);
    local_moves_.pop_back();
  }
}

Weight NlevelPartitioner::run(const PartitionProblem& problem, Rng& rng,
                              std::vector<PartId>& parts) {
  const Hypergraph& h = *problem.graph;
  const std::size_t n = h.num_vertices();
  const std::size_t m = h.num_edges();
  // 32-bit id contract: VertexId/EdgeId counters below cannot wrap.
  VP_CHECK(n <= kInvalidVertex, "vertex count " << n << " fits VertexId");
  VP_CHECK(m <= kInvalidEdge, "edge count " << m << " fits EdgeId");
  audit_ = AuditConfig::resolve(config_.refine.audit);

  graph_.bind(h);
  coarsen(problem, cluster_weight_cap(h, config_.coarsen_to,
                                      config_.max_cluster_weight));
  solve_coarsest(problem, rng);

  // Partition bookkeeping at cluster granularity.
  pins_side_.assign(2 * m, 0);
  part_weight_[0] = 0;
  part_weight_[1] = 0;
  cut_ = 0;
  for (EdgeId e = 0; e < m; ++e) {
    for (const VertexId c : graph_.pins(e)) {
      ++pins_side_[2 * static_cast<std::size_t>(e) + side_[c]];
    }
    const std::uint32_t* ps = &pins_side_[2 * static_cast<std::size_t>(e)];
    if (ps[0] > 0 && ps[1] > 0) cut_ += h.edge_weight(e);
  }
  for (VertexId c = 0; c < n; ++c) {
    if (graph_.active(c)) part_weight_[side_[c]] += graph_.cluster_weight(c);
  }

  if (buckets_ == nullptr || n != bucket_n_) {
    buckets_ = std::make_unique<BucketArray<2>>(n);
    bucket_n_ = n;
  }
  locked_epoch_.assign(n, 0);
  epoch_ = 0;
  activated_at_.resize(n);

  // Uncontract one vertex per level; localized FM after each split.
  while (graph_.num_contractions() > 0) {
    reactivated_.clear();
    const NlevelGraph::Uncontracted uc = graph_.uncontract(&reactivated_);
    side_[uc.v] = side_[uc.u];
    for (const EdgeId e : reactivated_) {
      ++pins_side_[2 * static_cast<std::size_t>(e) + side_[uc.u]];
    }
    local_search(problem, uc.u, uc.v);
    if (audit_.enabled()) {
      // Cheap incremental audit: the maintained cut must match the pin
      // counts, and the part weights must match the active clusters.
      Weight cut = 0;
      for (EdgeId e = 0; e < m; ++e) {
        const std::uint32_t* ps =
            &pins_side_[2 * static_cast<std::size_t>(e)];
        if (ps[0] > 0 && ps[1] > 0) cut += h.edge_weight(e);
      }
      VP_CHECK(cut == cut_, "nlevel audit: pin-count cut " << cut
                              << " != maintained cut " << cut_);
      Weight w[2] = {0, 0};
      for (VertexId c = 0; c < n; ++c) {
        if (graph_.active(c)) w[side_[c]] += graph_.cluster_weight(c);
      }
      VP_CHECK(w[0] == part_weight_[0] && w[1] == part_weight_[1],
               "nlevel audit: part weights drifted");
    }
  }

  parts.assign(side_.begin(), side_.end());
  if (audit_.enabled()) {
    const Weight cut = compute_cut(h, parts);
    VP_CHECK(cut == cut_, "nlevel audit: final cut " << cut
                            << " != maintained cut " << cut_);
  }

  // One full flat-FM sweep of the final assignment: the localized
  // searches only see boundary neighborhoods, the sweep catches the
  // cross-cut moves they missed.
  PartitionState state(h);
  state.assign(parts);
  FmRefiner refiner(problem, config_.refine);
  work_.absorb(refiner.refine(state, rng).update_work());
  parts = state.parts();
  cut_ = state.cut();
  return cut_;
}

}  // namespace vlsipart
