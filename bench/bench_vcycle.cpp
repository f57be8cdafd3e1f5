// Ablation of V-cycling (Sec. 3.2): techniques "such as V-cycling that
// are invoked only for the best result of several starts (this implies
// that sampling methods cannot be used)" are why actual CPU time must be
// the comparison axis.  Compares, at matched start counts:
//   * plain ML multistart;
//   * ML multistart + V-cycles on the best (the hMetis protocol);
//   * per-start V-cycling (the expensive alternative).
//
// Expected shape: V-cycle-on-best buys a small cut improvement for a
// small CPU increment; per-start V-cycling costs much more CPU for
// little additional quality.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/8,
                                         /*default_scale=*/0.5);

  TextTable table(
      {"case", "protocol", "best cut", "total cpu (s)"});

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);

    {
      MlPartitioner engine(ml_config(our_lifo()));
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      table.add_row({name, "plain multistart",
                     std::to_string(r.best_cut),
                     fmt_fixed(r.total_cpu_seconds, 3)});
    }
    {
      MlPartitioner engine(ml_config(our_lifo()));
      const MultistartResult r =
          run_hmetis_like(problem, engine, opt.runs, 2, opt.seed);
      table.add_row({name, "V-cycle best (x2)",
                     std::to_string(r.best_cut),
                     fmt_fixed(r.total_cpu_seconds, 3)});
    }
    {
      MlConfig config = ml_config(our_lifo());
      config.vcycles = 2;
      MlPartitioner engine(config);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      table.add_row({name, "V-cycle every start (x2)",
                     std::to_string(r.best_cut),
                     fmt_fixed(r.total_cpu_seconds, 3)});
    }
  }

  std::printf("V-cycling ablation: ML LIFO FM, 2%% balance, %zu starts, "
              "scale %.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "V-cycle protocol comparison");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
