// Non-dominated (Pareto) frontier of (solution cost, runtime) points.
//
// The paper defines: "a particular (solution cost, runtime) performance
// point A is dominated by another performance point B if and only if B
// has both lower cost and lower runtime than A", and the non-dominated
// frontier as the set of points not dominated by any other (Sec. 3.2).
// It also describes a "ranking diagram" of which heuristic wins in each
// runtime regime.
#pragma once

#include <string>
#include <vector>

namespace vlsipart {

struct PerfPoint {
  double cost = 0.0;
  double cpu_seconds = 0.0;
  std::string label;  ///< heuristic / configuration identifier
};

/// Strict dominance per the paper's definition: B dominates A iff B has
/// both lower cost AND lower runtime (strictly).
bool dominates(const PerfPoint& b, const PerfPoint& a);

/// All points not dominated by any other, sorted by ascending runtime.
/// Duplicate (cost, time) pairs are all retained (none dominates the
/// other under strict dominance).
std::vector<PerfPoint> pareto_frontier(std::vector<PerfPoint> points);

struct RankingEntry {
  double budget_cpu_seconds = 0.0;
  std::string winner;   ///< label of the best point affordable in budget
  double winner_cost = 0.0;
};

/// Speed-dependent ranking: for each CPU budget, the point with the
/// lowest cost among those with runtime <= budget.  Budgets with no
/// affordable point yield an entry with an empty winner label.
std::vector<RankingEntry> ranking_diagram(
    const std::vector<PerfPoint>& points, const std::vector<double>& budgets);

}  // namespace vlsipart
