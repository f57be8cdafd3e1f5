// Regenerates the paper's non-dominated-frontier comparison (Sec. 3.2):
// (solution cost, runtime) performance points for every engine at
// several multistart budgets, the Pareto set among them, and the
// speed-dependent ranking diagram of Schreiber-Martin [33][34].
//
// Expected shape: the frontier's low-budget end is flat FM, the rest is
// ML; "Reported"-style weak configurations never appear on the frontier.
#include "bench/bench_common.h"
#include "src/eval/pareto.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.35);
  const std::vector<std::size_t> budgets_in_starts = {1, 2, 4, 8, 16};

  struct Engine {
    std::string label;
    bool ml;
    FmConfig cfg;
  };
  const Engine engines[] = {
      {"flat-LIFO", false, our_lifo()},
      {"flat-CLIP", false, our_clip()},
      {"flat-LIFO-weak", false, reported_lifo()},
      {"ML-LIFO", true, our_lifo()},
      {"ML-CLIP", true, our_clip()},
  };

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);

    std::vector<PerfPoint> points;
    for (const Engine& e : engines) {
      MultistartResult r;
      if (e.ml) {
        MlPartitioner engine(ml_config(e.cfg));
        r = run_multistart(problem, engine, opt.runs, opt.seed, opt.threads);
      } else {
        FlatFmPartitioner engine(e.cfg);
        r = run_multistart(problem, engine, opt.runs, opt.seed, opt.threads);
      }
      const Sample cuts = r.cut_sample();
      for (const std::size_t k : budgets_in_starts) {
        PerfPoint p;
        p.cost = cuts.expected_min_of(k);
        p.cpu_seconds = r.avg_cpu_seconds() * static_cast<double>(k);
        p.label = e.label + "@" + std::to_string(k);
        points.push_back(p);
      }
    }

    std::printf("=== Performance points, %s (2%% balance)\n\n",
                name.c_str());
    TextTable all({"point", "cpu (s)", "E[best cut]"});
    for (const PerfPoint& p : points) {
      all.add_row({p.label, fmt_fixed(p.cpu_seconds, 3),
                   fmt_fixed(p.cost, 1)});
    }
    emit(all, opt, "All (cost, runtime) points");

    const auto frontier = pareto_frontier(points);
    TextTable front({"frontier point", "cpu (s)", "E[best cut]"});
    for (const PerfPoint& p : frontier) {
      front.add_row({p.label, fmt_fixed(p.cpu_seconds, 3),
                     fmt_fixed(p.cost, 1)});
    }
    emit(front, opt, "Non-dominated (Pareto) frontier");

    // Ranking diagram at log-spaced budgets spanning the point cloud.
    double max_t = 0.0;
    for (const auto& p : points) max_t = std::max(max_t, p.cpu_seconds);
    std::vector<double> budgets;
    for (double b = 0.001; b <= max_t * 2.0; b *= 2.0) budgets.push_back(b);
    const auto ranking = ranking_diagram(points, budgets);
    TextTable rank({"budget (cpu s)", "winner", "E[best cut]"});
    for (const RankingEntry& e : ranking) {
      rank.add_row({fmt_fixed(e.budget_cpu_seconds, 3),
                    e.winner.empty() ? "-" : e.winner,
                    e.winner.empty() ? "-" : fmt_fixed(e.winner_cost, 1)});
    }
    emit(rank, opt, "Speed-dependent ranking diagram");
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
