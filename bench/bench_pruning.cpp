// Ablation of start pruning (Sec. 3.2): "pruning (early termination of
// starts that appear unpromising relative to previous starts) can be
// applied" — one of the reasons actual CPU time, not number of starts,
// must be the comparison axis.
//
// Expected shape: pruning preserves the best cut (or nearly so) while
// cutting total CPU, with savings growing as the prune factor tightens.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  TextTable table({"case", "variant", "best cut", "avg cut(kept)",
                   "pruned", "total cpu (s)"});

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);

    FlatFmPartitioner plain_engine{our_lifo()};
    const MultistartResult plain =
        run_multistart(problem, plain_engine, opt.runs, opt.seed);
    table.add_row({name, "no pruning", std::to_string(plain.best_cut),
                   fmt_fixed(plain.avg_cut(), 1), "0/" +
                       std::to_string(opt.runs),
                   fmt_fixed(plain.total_cpu_seconds, 3)});

    for (const double factor : {1.20, 1.10, 1.02}) {
      PruneConfig prune;
      prune.factor = factor;
      const PrunedMultistartResult pruned = run_multistart_pruned(
          problem, our_lifo(), opt.runs, opt.seed, prune);
      RunningStats kept;
      for (const auto& s : pruned.result.starts) {
        if (s.feasible) kept.add(static_cast<double>(s.cut));
      }
      table.add_row(
          {name, "prune @" + fmt_fixed(factor, 2),
           std::to_string(pruned.result.best_cut),
           fmt_fixed(kept.mean(), 1),
           std::to_string(pruned.pruned_starts) + "/" +
               std::to_string(opt.runs),
           fmt_fixed(pruned.result.total_cpu_seconds, 3)});
    }
  }

  std::printf("Start-pruning ablation: flat LIFO FM, 2%% balance, %zu "
              "starts, scale %.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "Pruning quality/CPU tradeoff");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
