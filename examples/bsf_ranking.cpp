// BSF-curve and Pareto-ranking demo (Sec. 3.2 reporting methodology).
//
// Produces, for one instance, the three artifacts the paper prescribes
// for metaheuristic comparison — plot-ready:
//   1. best-so-far curves (expected best cut vs CPU budget) per engine;
//   2. the non-dominated (cost, runtime) frontier across engines;
//   3. a speed-dependent ranking: which engine to run at each budget.
//
// Usage:
//   bsf_ranking [--case ibm01] [--scale 0.5] [--runs 30] [--seed 1]
//               [--tolerance 0.02]
#include <cstdio>

#include "src/eval/bsf.h"
#include "src/eval/pareto.h"
#include "src/gen/netlist_gen.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/util/cli.h"

using namespace vlsipart;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"case", "runs", "scale", "seed", "tolerance"});
  const std::string case_name = args.get("case", "ibm01");
  const double scale = args.get_double("scale", 0.5);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 30));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double tolerance = args.get_double("tolerance", 0.02);

  const Hypergraph h = generate_netlist(preset(case_name).scaled(scale));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), tolerance);

  FmConfig lifo;
  FmConfig clip = lifo;
  clip.clip = true;
  clip.exclude_oversized = true;

  struct Engine {
    std::string label;
    bool ml;
    FmConfig cfg;
  };
  const Engine engines[] = {
      {"flat-LIFO", false, lifo},
      {"flat-CLIP", false, clip},
      {"ML-LIFO", true, lifo},
      {"ML-CLIP", true, clip},
  };
  const std::vector<std::size_t> ks = {1, 2, 4, 8, 16, 32};

  std::vector<PerfPoint> points;
  for (const Engine& e : engines) {
    MultistartResult r;
    if (e.ml) {
      MlConfig config;
      config.refine = e.cfg;
      MlPartitioner engine(config);
      r = run_multistart(problem, engine, runs, seed);
    } else {
      FlatFmPartitioner engine(e.cfg);
      r = run_multistart(problem, engine, runs, seed);
    }
    const Sample cuts = r.cut_sample();
    const auto curve = expected_bsf_curve(cuts, r.avg_cpu_seconds(), ks);
    std::printf("%s\n", format_bsf(curve, e.label).c_str());
    for (const BsfPoint& p : curve) {
      points.push_back({p.expected_cost, p.cpu_seconds,
                        e.label + "@" + std::to_string(p.starts)});
    }
  }

  const auto frontier = pareto_frontier(points);
  std::printf("%s\n", format_frontier(frontier).c_str());

  std::vector<double> budgets;
  double max_t = 0.0;
  for (const auto& p : points) max_t = std::max(max_t, p.cpu_seconds);
  for (double b = 0.001; b <= 2.0 * max_t; b *= 2.0) budgets.push_back(b);
  std::printf("# ranking diagram: budget_cpu_sec winner expected_cut\n");
  for (const RankingEntry& e : ranking_diagram(points, budgets)) {
    std::printf("%g %s %g\n", e.budget_cpu_seconds,
                e.winner.empty() ? "-" : e.winner.c_str(), e.winner_cost);
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
