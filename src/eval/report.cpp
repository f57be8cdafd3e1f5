#include "src/eval/report.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/logging.h"

namespace vlsipart {

ComparisonReport compare_engines(const Hypergraph& h,
                                 const std::vector<LabeledSpec>& engines,
                                 const ComparisonConfig& config) {
  VP_CHECK(!engines.empty(), "at least one engine");
  VP_CHECK(config.baseline < engines.size(), "baseline index in range");
  const EngineSpec& regime = engines.front().second;
  for (const auto& [name, spec] : engines) {
    VP_CHECK(spec.starts == regime.starts && spec.seed == regime.seed &&
                 spec.tolerance == regime.tolerance,
             name << ": every engine needs the same starts, seed and "
                     "tolerance");
    VP_CHECK(spec.k == 2 && spec.vcycles == 0,
             name << ": a multistart comparison runs k = 2, vcycles = 0");
  }

  ComparisonReport report;
  report.engines.reserve(engines.size());
  for (const auto& [name, spec] : engines) {
    EngineResult run = run_engine(spec, h);
    if (!run.error.empty()) {
      throw std::runtime_error("compare_engines: " + name + " (" +
                               spec.engine + "): " + run.error);
    }
    EngineReport er;
    er.name = name;
    er.multistart = std::move(run.multistart);
    er.bsf = expected_bsf_curve(er.multistart.cut_sample(),
                                er.multistart.avg_cpu_seconds(),
                                config.budgets);
    for (const BsfPoint& p : er.bsf) {
      report.points.push_back(
          {p.expected_cost, p.cpu_seconds,
           name + "@" + std::to_string(p.starts)});
    }
    report.engines.push_back(std::move(er));
  }

  const EngineReport& baseline = report.engines[config.baseline];
  const Sample baseline_cuts = baseline.multistart.cut_sample();
  for (EngineReport& er : report.engines) {
    if (&er == &baseline) continue;
    er.versus_baseline =
        describe_comparison(er.name, er.multistart.cut_sample(),
                            baseline.name, baseline_cuts, config.alpha);
  }

  report.frontier = pareto_frontier(report.points);
  double max_t = 0.0;
  for (const PerfPoint& p : report.points) {
    max_t = std::max(max_t, p.cpu_seconds);
  }
  std::vector<double> budgets;
  for (double b = 0.001; b <= max_t * 2.0; b *= 2.0) budgets.push_back(b);
  report.ranking = ranking_diagram(report.points, budgets);
  return report;
}

}  // namespace vlsipart
