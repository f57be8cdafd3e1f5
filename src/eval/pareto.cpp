#include "src/eval/pareto.h"

#include <algorithm>
#include <limits>

namespace vlsipart {

bool dominates(const PerfPoint& b, const PerfPoint& a) {
  return b.cost < a.cost && b.cpu_seconds < a.cpu_seconds;
}

std::vector<PerfPoint> pareto_frontier(std::vector<PerfPoint> points) {
  // Sort by runtime ascending, cost ascending; sweep keeping the running
  // minimum cost.  A point is dominated iff some strictly faster point
  // has strictly lower cost.
  std::sort(points.begin(), points.end(),
            [](const PerfPoint& x, const PerfPoint& y) {
              if (x.cpu_seconds != y.cpu_seconds) {
                return x.cpu_seconds < y.cpu_seconds;
              }
              return x.cost < y.cost;
            });
  std::vector<PerfPoint> frontier;
  double best_cost_strictly_faster = std::numeric_limits<double>::infinity();
  std::size_t i = 0;
  while (i < points.size()) {
    // Process ties in runtime together: they cannot dominate each other.
    std::size_t j = i;
    while (j < points.size() &&
           points[j].cpu_seconds == points[i].cpu_seconds) {
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      if (points[k].cost < best_cost_strictly_faster) {
        frontier.push_back(points[k]);
      }
    }
    for (std::size_t k = i; k < j; ++k) {
      best_cost_strictly_faster =
          std::min(best_cost_strictly_faster, points[k].cost);
    }
    i = j;
  }
  return frontier;
}

std::vector<RankingEntry> ranking_diagram(
    const std::vector<PerfPoint>& points,
    const std::vector<double>& budgets) {
  std::vector<RankingEntry> ranking;
  ranking.reserve(budgets.size());
  for (const double budget : budgets) {
    RankingEntry entry;
    entry.budget_cpu_seconds = budget;
    double best = std::numeric_limits<double>::infinity();
    for (const PerfPoint& p : points) {
      if (p.cpu_seconds <= budget && p.cost < best) {
        best = p.cost;
        entry.winner = p.label;
        entry.winner_cost = p.cost;
      }
    }
    ranking.push_back(entry);
  }
  return ranking;
}

}  // namespace vlsipart
