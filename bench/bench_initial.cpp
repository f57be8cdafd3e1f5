// Initial-solution-generator ablation.
//
// Hauck and Borriello [20] "note the effect of initial solution
// generation" among the hidden implementation decisions (Sec. 2.2).
// Compares randomized-LPT starts against BFS region-growing starts for
// the flat FM engine, and both schemes at the coarsest level of the ML
// engine.
//
// Expected shape: BFS starts give flat FM a much lower *initial* cut but
// converge to similar (sometimes slightly better) final cuts with less
// work; at the ML coarsest level the effect is muted because the coarse
// graph is tiny.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  std::vector<std::string> header = {"engine", "initial"};
  for (const auto& name : opt.cases) {
    header.push_back(name + " cut");
    header.push_back(name + " cpu");
  }
  TextTable table(std::move(header));

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  const InitialScheme schemes[] = {InitialScheme::kRandom,
                                   InitialScheme::kBfs,
                                   InitialScheme::kMixed};

  for (const InitialScheme scheme : schemes) {
    std::vector<std::string> row = {"flat FM", name_of(scheme)};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.02);
      FlatFmPartitioner engine(our_lifo(), "", scheme);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      row.push_back(
          fmt_min_avg(static_cast<double>(r.min_cut()), r.avg_cut()));
      row.push_back(fmt_fixed(r.avg_cpu_seconds(), 4));
    }
    table.add_row(std::move(row));
  }
  for (const InitialScheme scheme : schemes) {
    std::vector<std::string> row = {"ML (coarsest)", name_of(scheme)};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.02);
      MlConfig config = ml_config(our_lifo());
      config.initial_scheme = scheme;
      MlPartitioner engine(config);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      row.push_back(
          fmt_min_avg(static_cast<double>(r.min_cut()), r.avg_cut()));
      row.push_back(fmt_fixed(r.avg_cpu_seconds(), 4));
    }
    table.add_row(std::move(row));
  }

  std::printf("Initial-solution ablation [20]: 2%% balance, min/avg over "
              "%zu runs, scale %.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "Initial solution generator");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
