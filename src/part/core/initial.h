// Initial solution generation for move-based partitioners.
//
// Hauck and Borriello [20] "note the effect of initial solution
// generation" as a hidden implementation decision; we expose the two
// standard generators explicitly.  Both respect fixed-vertex constraints
// and aim for a feasible (balance-satisfying) start.
#pragma once

#include <functional>
#include <vector>

#include "src/part/core/fm_config.h"
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {

/// Randomized feasible start: free vertices are considered in descending
/// weight order (randomly shuffled within equal weights); each goes to a
/// uniformly random side among those where it still fits, or to the
/// lighter side if it fits nowhere.  Macro-heavy ISPD98-style instances
/// thus get balanced starts with probability ~1 even at 2% tolerance.
std::vector<PartId> random_initial(const PartitionProblem& problem, Rng& rng);

/// Deterministic LPT bisection: descending weight, always to the lighter
/// side.  Used for single-start deterministic flows and tests.
std::vector<PartId> lpt_initial(const PartitionProblem& problem);

/// BFS region growing: part 0 grows hyperedge-by-hyperedge from a random
/// free seed vertex until it reaches half the total weight; the rest is
/// part 1.  Produces connected, low-cut starts — the "initial solution
/// generator" alternative of Hauck-Borriello [20], also standard at the
/// coarsest level of multilevel partitioners [25].  Fixed part-0
/// vertices pre-seed the region; the start may be infeasible on macro-
/// heavy instances (FM's recovery rule then rebalances).
std::vector<PartId> bfs_initial(const PartitionProblem& problem, Rng& rng);

/// Dispatch on scheme (FmConfig::initial_scheme); `try_index` selects the
/// branch under kMixed.
std::vector<PartId> make_initial(const PartitionProblem& problem,
                                 InitialScheme scheme, std::size_t try_index,
                                 Rng& rng);

/// The coarsest-level solve of the multilevel engines: `tries` (at least
/// one) starts from make_initial(problem, scheme, t, rng), each refined
/// in place by `refine`.  The first try is kept until a feasible try
/// with a lower cut replaces it; returns the kept assignment.
std::vector<PartId> best_of_initial_tries(
    const PartitionProblem& problem, InitialScheme scheme, std::size_t tries,
    Rng& rng, const std::function<void(PartitionState&)>& refine);

}  // namespace vlsipart
