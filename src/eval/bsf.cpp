#include "src/eval/bsf.h"

#include <algorithm>
#include <limits>

namespace vlsipart {

std::vector<BsfPoint> expected_bsf_curve(
    const Sample& cuts, double avg_start_seconds,
    const std::vector<std::size_t>& start_counts) {
  std::vector<BsfPoint> curve;
  curve.reserve(start_counts.size());
  for (const std::size_t k : start_counts) {
    if (k == 0 || k > cuts.size()) continue;
    BsfPoint p;
    p.starts = k;
    p.cpu_seconds = avg_start_seconds * static_cast<double>(k);
    p.expected_cost = cuts.expected_min_of(k);
    curve.push_back(p);
  }
  return curve;
}

std::vector<BsfPoint> observed_bsf_curve(
    const std::vector<StartRecord>& starts) {
  std::vector<BsfPoint> curve;
  curve.reserve(starts.size());
  double cpu = 0.0;
  double best = std::numeric_limits<double>::infinity();
  std::size_t k = 0;
  for (const StartRecord& s : starts) {
    cpu += s.cpu_seconds;
    ++k;
    if (s.feasible) best = std::min(best, static_cast<double>(s.cut));
    BsfPoint p;
    p.cpu_seconds = cpu;
    p.expected_cost = best;
    p.starts = k;
    curve.push_back(p);
  }
  return curve;
}

}  // namespace vlsipart
