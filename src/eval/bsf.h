// Best-so-far (BSF) curves and speed-dependent ranking (Sec. 3.2).
//
// Barr et al. [5] describe the BSF curve — expected best solution cost
// versus CPU budget tau in a multistart regime — as the standard
// metaheuristic reporting style; Schreiber-Martin [33][34] build
// speed-dependent rankings from the distribution of c_tau.  Both are
// computed here from the retained per-start samples of a multistart run.
#pragma once

#include <vector>

#include "src/part/core/multistart.h"
#include "src/util/stats.h"

namespace vlsipart {

struct BsfPoint {
  double cpu_seconds = 0.0;  ///< budget tau
  double expected_cost = 0.0;
  std::size_t starts = 0;  ///< number of starts the budget affords
};

/// Expected BSF curve under the independent-multistart model: a budget
/// tau affords k = floor(tau / avg_start_time) starts ("a given time
/// bound tau can be converted to a bound on the number of starts",
/// Sec. 3.2 footnote 6), and the expected cost is E[min of k draws] from
/// the empirical cut distribution.  Points are emitted for each k in
/// `start_counts` that the sample covers (0 < k <= cuts.size()): past
/// the sample, E[min] would only repeat the sample minimum at a CPU cost
/// no run measured.
std::vector<BsfPoint> expected_bsf_curve(
    const Sample& cuts, double avg_start_seconds,
    const std::vector<std::size_t>& start_counts);

/// Observed BSF trajectory of one actual multistart run: after each
/// start, (cumulative CPU, best cut so far).
std::vector<BsfPoint> observed_bsf_curve(
    const std::vector<StartRecord>& starts);

}  // namespace vlsipart
