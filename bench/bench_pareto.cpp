// Regenerates the paper's non-dominated-frontier comparison (Sec. 3.2):
// (solution cost, runtime) performance points for every registry engine
// at several multistart budgets, the Pareto set among them, the
// speed-dependent ranking diagram of Schreiber-Martin [33][34], and the
// multistart summary with significance tests against flat LIFO FM.
//
// Expected shape: ML points hold the frontier beyond the smallest
// budgets; the 1-start end is flat points separated by sub-millisecond
// CPU differences, so which of them is non-dominated varies from run to
// run.  The deliberately weak configuration never wins a budget.
#include "bench/bench_common.h"
#include "src/eval/report.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.35,
                                         {"threads"});
  const double tolerance = 0.02;
  const std::vector<LabeledSpec> engines = {
      {"flat-LIFO", multistart_spec(opt, "flat", our_lifo(), tolerance)},
      {"flat-CLIP", multistart_spec(opt, "clip", our_lifo(), tolerance)},
      {"flat-LIFO-weak",
       multistart_spec(opt, "flat", reported_lifo(), tolerance)},
      {"ML-LIFO", multistart_spec(opt, "ml", our_lifo(), tolerance)},
      {"ML-CLIP", multistart_spec(opt, "ml", our_clip(), tolerance)},
      {"nlevel", multistart_spec(opt, "nlevel", our_lifo(), tolerance)},
      {"evo", multistart_spec(opt, "evo", our_lifo(), tolerance)},
  };
  const ComparisonConfig config;  // budgets 1..16 starts, flat-LIFO baseline

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const ComparisonReport report = compare_engines(h, engines, config);
    std::printf("=== Performance points, %s (2%% balance)\n\n",
                name.c_str());

    TextTable summary(
        {"engine", "min cut", "avg cut", "stddev", "avg cpu (s)"});
    for (const EngineReport& e : report.engines) {
      summary.add_row({e.name, std::to_string(e.multistart.min_cut()),
                       fmt_fixed(e.multistart.avg_cut(), 1),
                       fmt_fixed(e.multistart.cut_sample().stddev(), 1),
                       fmt_fixed(e.multistart.avg_cpu_seconds(), 4)});
    }
    emit(summary, opt, "Multistart summary");

    const auto add_points = [](TextTable& table,
                               const std::vector<PerfPoint>& points) {
      for (const PerfPoint& p : points) {
        table.add_row({p.label, fmt_fixed(p.cpu_seconds, 3),
                       fmt_fixed(p.cost, 1)});
      }
    };
    TextTable all({"point", "cpu (s)", "E[best cut]"});
    add_points(all, report.points);
    emit(all, opt, "All (cost, runtime) points");
    TextTable front({"frontier point", "cpu (s)", "E[best cut]"});
    add_points(front, report.frontier);
    emit(front, opt, "Non-dominated (Pareto) frontier");

    TextTable rank({"budget (cpu s)", "winner", "E[best cut]"});
    for (const RankingEntry& e : report.ranking) {
      rank.add_row({fmt_fixed(e.budget_cpu_seconds, 3),
                    e.winner.empty() ? "-" : e.winner,
                    e.winner.empty() ? "-" : fmt_fixed(e.winner_cost, 1)});
    }
    emit(rank, opt, "Speed-dependent ranking diagram");

    TextTable significance({"engine", "versus baseline"});
    for (const EngineReport& e : report.engines) {
      if (!e.versus_baseline.empty()) {
        significance.add_row({e.name, e.versus_baseline});
      }
    }
    emit(significance, opt,
         "Significance vs " + report.engines[config.baseline].name);
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
