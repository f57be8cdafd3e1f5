#include "src/part/kway/recursive_bisection.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>

#include "src/hypergraph/subgraph.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/kway/kway_refiner.h"
#include "src/util/logging.h"

namespace vlsipart {
namespace {

class KwayDriver {
 public:
  KwayDriver(const Hypergraph& h, const KwayConfig& config)
      : h_(h), config_(config) {
    // Per-bisection slack so that accumulated drift over the recursion
    // depth stays within the final per-part tolerance band.
    std::size_t levels = 0;
    for (std::size_t k = 1; k < config.k; k *= 2) ++levels;
    slack_fraction_ =
        config.tolerance / (2.0 * static_cast<double>(std::max<std::size_t>(
                                      1, levels)));
    // check_kway's per-part band.
    const double capacity = static_cast<double>(h.total_vertex_weight()) /
                            static_cast<double>(config.k);
    lo_ = capacity * (1.0 - config.tolerance / 2.0) - 1.0;
    hi_ = capacity * (1.0 + config.tolerance / 2.0) + 1.0;
    result_.parts.assign(h.num_vertices(), 0);
  }

  KwayResult run() {
    std::vector<VertexId> all(h_.num_vertices());
    for (std::size_t v = 0; v < all.size(); ++v) {
      all[v] = static_cast<VertexId>(v);
    }
    result_.bisections =
        split(all, config_.k, /*first_part=*/0, config_.seed,
              std::max<std::size_t>(1, config_.threads));
    if (config_.refine_passes > 0 && config_.k >= 2) {
      // Direct k-way FM polish (Sanchis-style first-order passes).
      KwayProblem problem =
          KwayProblem::uniform(h_, config_.k, config_.tolerance);
      KwayState state(h_, config_.k);
      state.assign(result_.parts);
      KwayFmRefiner(problem, config_.refine_passes).refine(state);
      // Keep the polish only if it did not break the RB balance.
      if (check_kway(h_, state.parts(), config_.k, config_.tolerance)
              .empty()) {
        result_.parts = state.parts();
      }
    }
    result_.cut = kway_cut(h_, result_.parts);
    result_.part_weights.assign(config_.k, 0);
    for (std::size_t v = 0; v < h_.num_vertices(); ++v) {
      result_.part_weights[result_.parts[v]] +=
          h_.vertex_weight(static_cast<VertexId>(v));
    }
    return std::move(result_);
  }

 private:
  /// Assign parts [first_part, first_part + k) to `cells` with at most
  /// `threads` threads and return the bisections performed; each subtree
  /// counts its own, so concurrent subtrees share no counter.  A subtree
  /// is a pure function of (cells, k, first_part, seed) and writes only
  /// its own cells' parts entries, so the budget never changes the answer.
  std::size_t split(const std::vector<VertexId>& cells, std::size_t k,
                    std::size_t first_part, std::uint64_t seed,
                    std::size_t threads) {
    if (k == 1) {
      for (const VertexId v : cells) {
        result_.parts[v] = static_cast<PartId>(first_part);
      }
      return 0;
    }
    const std::size_t k0 = k / 2;
    const std::size_t k1 = k - k0;

    // Sub-hypergraph over this block's cells (nets projected onto their
    // internal pins; < 2 internal pins dropped).
    Subhypergraph extracted = extract_subhypergraph(h_, cells);
    const Hypergraph& sub = extracted.graph;
    const Weight subtotal = sub.total_vertex_weight();

    // Capacity-proportional asymmetric balance: part 0 of this bisection
    // holds k0/k of the block's weight, within the per-level slack.
    const double share = static_cast<double>(k0) / static_cast<double>(k);
    const double target0 = static_cast<double>(subtotal) * share;
    const auto slack = static_cast<Weight>(target0 * slack_fraction_) + 1;
    // The per-level slack compounds over the levels, so clip the window
    // to check_kway's band: part 0 becomes k0 parts and part 1 k1 parts.
    const auto at_least = [&](std::size_t parts) {
      return static_cast<Weight>(std::ceil(static_cast<double>(parts) * lo_));
    };
    const auto at_most = [&](std::size_t parts) {
      return static_cast<Weight>(std::floor(static_cast<double>(parts) * hi_));
    };
    Weight min0 = std::max({static_cast<Weight>(target0) - slack,
                            at_least(k0), subtotal - at_most(k1)});
    Weight max0 = std::min({static_cast<Weight>(target0) + slack,
                            at_most(k0), subtotal - at_least(k1)});
    if (min0 > max0) {
      // An ancestor fell back to lpt_initial; check_kway reports it.
      min0 = static_cast<Weight>(target0) - slack;
      max0 = static_cast<Weight>(target0) + slack;
    }
    PartitionProblem problem;
    problem.graph = &sub;
    problem.balance = BalanceConstraint::from_bounds(subtotal, min0, max0);

    std::unique_ptr<Bipartitioner> engine;
    if (config_.use_ml) {
      MlConfig ml = config_.ml;
      ml.refine = config_.fm;
      engine = std::make_unique<MlPartitioner>(ml);
    } else {
      engine = std::make_unique<FlatFmPartitioner>(config_.fm);
    }
    std::vector<PartId> parts =
        run_multistart(problem, *engine, config_.starts_per_level, seed,
                       threads)
            .best_parts;
    if (parts.empty()) {
      parts = lpt_initial(problem);  // all starts infeasible: fall back
    }

    std::vector<VertexId> lo;
    std::vector<VertexId> hi;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      (parts[i] == 0 ? lo : hi).push_back(cells[i]);
    }

    const std::uint64_t lo_seed = seed * 6364136223846793005ULL + 1;
    const std::uint64_t hi_seed = seed * 6364136223846793005ULL + 2;
    if (threads >= 2 && k0 > 1) {
      // Both subtrees bisect further (k1 >= k0 > 1): run them at once,
      // the low one on a helper thread, with the budget halved.
      std::future<std::size_t> lo_branch =
          std::async(std::launch::async, [&, threads] {
            return split(lo, k0, first_part, lo_seed, threads / 2);
          });
      const std::size_t hi_bisections =
          split(hi, k1, first_part + k0, hi_seed, threads - threads / 2);
      return 1 + lo_branch.get() + hi_bisections;
    }
    return 1 + split(lo, k0, first_part, lo_seed, threads) +
           split(hi, k1, first_part + k0, hi_seed, threads);
  }

  const Hypergraph& h_;
  KwayConfig config_;
  double slack_fraction_;
  double lo_;
  double hi_;
  KwayResult result_;
};

}  // namespace

KwayResult recursive_bisection(const Hypergraph& h,
                               const KwayConfig& config) {
  VP_CHECK(config.k >= 2 && config.k <= 128, "k in [2, 128]");
  KwayDriver driver(h, config);
  return driver.run();
}

Weight kway_cut(const Hypergraph& h, const std::vector<PartId>& parts) {
  VP_CHECK(parts.size() == h.num_vertices(), "assignment covers vertices");
  Weight cut = 0;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto span = h.pins(static_cast<EdgeId>(e));
    const PartId first = parts[span.front()];
    for (const VertexId v : span) {
      if (parts[v] != first) {
        cut += h.edge_weight(static_cast<EdgeId>(e));
        break;
      }
    }
  }
  return cut;
}

std::string check_kway(const Hypergraph& h, const std::vector<PartId>& parts,
                       std::size_t k, double tolerance) {
  if (parts.size() != h.num_vertices()) return "assignment size mismatch";
  std::vector<Weight> weights(k, 0);
  for (std::size_t v = 0; v < parts.size(); ++v) {
    if (parts[v] >= k) {
      return "vertex " + std::to_string(v) + " has part out of range";
    }
    weights[parts[v]] += h.vertex_weight(static_cast<VertexId>(v));
  }
  const double capacity = static_cast<double>(h.total_vertex_weight()) /
                          static_cast<double>(k);
  for (std::size_t p = 0; p < k; ++p) {
    const double lo = capacity * (1.0 - tolerance / 2.0) - 1.0;
    const double hi = capacity * (1.0 + tolerance / 2.0) + 1.0;
    if (static_cast<double>(weights[p]) < lo ||
        static_cast<double>(weights[p]) > hi) {
      std::ostringstream out;
      out << "part " << p << " weight " << weights[p] << " outside ["
          << lo << ", " << hi << "]";
      return out.str();
    }
  }
  return {};
}

}  // namespace vlsipart
