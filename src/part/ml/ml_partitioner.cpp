#include "src/part/ml/ml_partitioner.h"

#include <functional>
#include <memory>

#include "src/part/core/initial.h"
#include "src/part/core/parallel_refine.h"
#include "src/part/ml/parallel_coarsen.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace vlsipart {

MlPartitioner::MlPartitioner(MlConfig config) : config_(config) {}

std::unique_ptr<Bipartitioner> MlPartitioner::clone() const {
  return std::make_unique<MlPartitioner>(config_);
}

ThreadPool* MlPartitioner::acquire_pool() {
  const std::size_t threads = std::max(config_.refine.refine_threads,
                                       config_.coarsen.coarsen_threads);
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

Weight MlPartitioner::run_internal(const PartitionProblem& problem, Rng& rng,
                                   std::vector<PartId>& parts,
                                   bool restricted,
                                   const std::vector<PartId>* cluster_guide) {
  const Hypergraph& fine = *problem.graph;

  // A non-empty guide restricts clustering to equal labels.  Coarsening
  // only reads it, so it binds the caller's vector.
  const std::vector<PartId> no_guide;
  const std::vector<PartId>& guide =
      restricted ? (cluster_guide != nullptr ? *cluster_guide : parts)
                 : no_guide;
  std::vector<CoarsenLevel> levels =
      config_.coarsen.coarsen_threads > 1
          ? parallel_build_hierarchy(fine, config_.coarsen, problem.fixed,
                                     guide, acquire_pool(),
                                     &contraction_memory_)
          : build_hierarchy(fine, config_.coarsen, problem.fixed, guide, rng,
                            &contraction_memory_);

  // Under runtime audits, every contracted hypergraph gets the full
  // structural validation (offset monotonicity, incidence-direction
  // consistency, cached weight totals) before anything refines on it.
  const AuditConfig audit = AuditConfig::resolve(config_.refine.audit);
  if (audit.enabled()) {
    for (const CoarsenLevel& level : levels) level.coarse.validate();
  }

  // Fixed constraints at level i (0 = the input graph); build_levels
  // projected them down with each kept level.
  auto fixed_at_level = [&](std::size_t i) -> const std::vector<PartId>& {
    return i == 0 ? problem.fixed : levels[i - 1].fixed;
  };

  const Hypergraph* coarsest =
      levels.empty() ? &fine : &levels.back().coarse;

  // Level refinement dispatch: serial FM at refine_threads=1 (the
  // historical, golden-digest-pinned path), the synchronous-round
  // parallel engine otherwise.  One refiner per problem: the coarsest
  // level's serves every initial try.  It is shared because
  // std::function needs a copyable target and the round refiner holds a
  // mutex.
  const bool par_refine = config_.refine.refine_threads > 1;
  auto refiner_for = [&](const PartitionProblem& p)
      -> std::function<void(PartitionState&)> {
    if (par_refine) {
      auto refiner = std::make_shared<ParallelFmRefiner>(p, config_.refine,
                                                         acquire_pool());
      return [this, refiner, &rng](PartitionState& s) {
        work_.absorb(refiner->refine(s, rng).update_work());
      };
    }
    auto refiner = std::make_shared<FmRefiner>(p, config_.refine);
    return [this, refiner, &rng](PartitionState& s) {
      work_.absorb(refiner->refine(s, rng).update_work());
    };
  };

  PartitionProblem coarse_problem;
  coarse_problem.graph = coarsest;
  coarse_problem.balance = problem.balance;
  coarse_problem.fixed = fixed_at_level(levels.size());

  // Coarsest-level solution.
  std::vector<PartId> coarse_parts;
  if (restricted) {
    // Project the current solution down the (guide-respecting)
    // hierarchy; clusters are guide-homogeneous and the guide refines
    // the solution, so the projected cut equals the fine cut by
    // construction.  build_levels projected the guide, which under
    // vcycle_guided holds labels (2*p1 + p2), not parts, so the parts
    // are projected here.
    coarse_parts = parts;
    for (const CoarsenLevel& level : levels) {
      std::vector<PartId> next(level.coarse.num_vertices(), kNoPart);
      for (std::size_t v = 0; v < coarse_parts.size(); ++v) {
        next[level.fine_to_coarse[v]] = coarse_parts[v];
      }
      coarse_parts = std::move(next);
    }
    PartitionState state(*coarsest);
    state.assign(coarse_parts);
    refiner_for(coarse_problem)(state);
    coarse_parts = state.parts();
  } else {
    coarse_parts = best_of_initial_tries(
        coarse_problem, config_.refine.initial_scheme, config_.initial_tries,
        rng, refiner_for(coarse_problem));
  }

  // Uncoarsen + refine.  Once its map has projected the solution, a
  // level is spent: popping it frees its graph before the next (larger)
  // level refines, so level 0's FM runs without the hierarchy resident.
  Weight audit_prev_cut =
      audit.enabled() ? compute_cut(*coarsest, coarse_parts) : 0;
  for (std::size_t i = levels.size(); i-- > 0;) {
    const Hypergraph* level_graph = (i == 0) ? &fine : &levels[i - 1].coarse;
    coarse_parts = project_partition(levels[i].fine_to_coarse, coarse_parts);
    levels.pop_back();

    PartitionProblem level_problem;
    level_problem.graph = level_graph;
    level_problem.balance = problem.balance;
    level_problem.fixed = fixed_at_level(i);

    PartitionState state(*level_graph);
    state.assign(coarse_parts);
    if (audit.enabled()) {
      // Contraction drops only uncuttable single-cluster nets and merges
      // parallel nets weight-preservingly, so projecting a coarse
      // solution one level down must reproduce its cut exactly.
      VP_CHECK(state.cut() == audit_prev_cut,
               "audit: projection to level " << i << " changed the cut from "
                                             << audit_prev_cut << " to "
                                             << state.cut());
    }
    refiner_for(level_problem)(state);
    coarse_parts = state.parts();
    audit_prev_cut = state.cut();
  }

  parts = std::move(coarse_parts);
  return compute_cut(fine, parts);
}

Weight MlPartitioner::run(const PartitionProblem& problem, Rng& rng,
                          std::vector<PartId>& parts) {
  Weight cut = run_internal(problem, rng, parts, /*restricted=*/false);
  for (std::size_t c = 0; c < config_.vcycles; ++c) {
    const Weight improved = vcycle(problem, rng, parts);
    if (improved >= cut) break;
    cut = improved;
  }
  return cut;
}

Weight MlPartitioner::vcycle(const PartitionProblem& problem, Rng& rng,
                             std::vector<PartId>& parts) {
  VP_CHECK(parts.size() == problem.graph->num_vertices(),
           "v-cycle needs a full assignment");
  return restricted_cycle(problem, rng, parts, nullptr);
}

Weight MlPartitioner::vcycle_guided(const PartitionProblem& problem, Rng& rng,
                                    std::vector<PartId>& parts,
                                    const std::vector<PartId>& guide) {
  VP_CHECK(parts.size() == problem.graph->num_vertices() &&
               guide.size() == parts.size(),
           "guided v-cycle needs a full assignment and guide");
  // The guide must refine the solution: one part per guide label.  With
  // the memetic agreement encoding guide = 2*p1 + p2 and parts = p1 this
  // holds by construction; the check keeps other callers honest (a
  // violating guide would make the downward projection pick an arbitrary
  // cluster member's part).
  {
    PartId label_part[256];
    std::fill(std::begin(label_part), std::end(label_part), kNoPart);
    for (std::size_t v = 0; v < parts.size(); ++v) {
      PartId& p = label_part[guide[v]];
      VP_CHECK(p == kNoPart || p == parts[v],
               "guided v-cycle: guide label " << int(guide[v])
                 << " spans both parts — guide must refine parts");
      p = parts[v];
    }
  }
  return restricted_cycle(problem, rng, parts, &guide);
}

Weight MlPartitioner::restricted_cycle(const PartitionProblem& problem,
                                       Rng& rng, std::vector<PartId>& parts,
                                       const std::vector<PartId>* guide) {
  std::vector<PartId> candidate = parts;
  const Weight before = compute_cut(*problem.graph, parts);
  const Weight after =
      run_internal(problem, rng, candidate, /*restricted=*/true, guide);
  if (after <= before && check_solution(problem, candidate).empty()) {
    parts = std::move(candidate);
    return after;
  }
  return before;
}

MultistartResult run_hmetis_like(const PartitionProblem& problem,
                                 MlPartitioner& partitioner,
                                 std::size_t num_starts,
                                 std::size_t vcycles_on_best,
                                 std::uint64_t seed,
                                 std::size_t num_threads) {
  MultistartResult result =
      run_multistart(problem, partitioner, num_starts, seed, num_threads);
  if (result.best_parts.empty() || vcycles_on_best == 0) return result;

  // "hMetis-1.5 will V-cycle the best result among these starts": apply
  // the trailing V-cycles to the winner, counting their CPU.
  Rng rng(seed ^ 0x5ec5eedc0ffeeULL);
  CpuTimer timer;
  Weight cut = result.best_cut;
  for (std::size_t c = 0; c < vcycles_on_best; ++c) {
    const Weight improved =
        partitioner.vcycle(problem, rng, result.best_parts);
    if (improved >= cut) break;
    cut = improved;
  }
  result.best_cut = cut;
  result.total_cpu_seconds += timer.elapsed();
  return result;
}

}  // namespace vlsipart
