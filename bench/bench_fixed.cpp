// Fixed-vertices study (Sec. 2.1 / companion paper [9]).
//
// "In top-down placement, almost all hypergraph partitioning instances
// have many vertices fixed in partitions due to terminal propagation or
// pad locations.  ...the presence of fixed terminals fundamentally
// changes the nature of the partitioning problem", suggesting heuristics
// "optimized for speed and 'easy' instances".
//
// Protocol: compute a reference solution with the ML engine; fix a
// fraction f of randomly chosen vertices at their reference sides; run a
// flat FM multistart on the constrained instance.
//
// Expected shape: as f grows, average cut and run-to-run spread both
// shrink and runs get faster — fixed instances are "easier".
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  TextTable table({"case", "fixed %", "min cut", "avg cut", "stddev",
                   "avg cpu (s)"});

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem base = make_problem(h, 0.02);

    // Reference solution from the strongest engine.
    MlPartitioner reference_engine(ml_config(our_lifo()));
    const MultistartResult reference =
        run_multistart(base, reference_engine, 4, opt.seed ^ 0xF15EDULL);
    const std::vector<PartId>& ref = reference.best_parts;

    for (const double fraction : {0.0, 0.05, 0.15, 0.30, 0.50}) {
      PartitionProblem problem = base;
      problem.fixed.assign(h.num_vertices(), kNoPart);
      Rng pick(opt.seed + 99);
      const auto target = static_cast<std::size_t>(
          fraction * static_cast<double>(h.num_vertices()));
      std::size_t fixed_count = 0;
      while (fixed_count < target) {
        const auto v = static_cast<VertexId>(pick.below(h.num_vertices()));
        if (problem.fixed[v] == kNoPart) {
          problem.fixed[v] = ref[v];
          ++fixed_count;
        }
      }
      FlatFmPartitioner engine(our_lifo());
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      const Sample cuts = r.cut_sample();
      table.add_row({name, fmt_fixed(fraction * 100.0, 0),
                     std::to_string(r.min_cut()), fmt_fixed(r.avg_cut(), 1),
                     fmt_fixed(cuts.stddev(), 1),
                     fmt_fixed(r.avg_cpu_seconds(), 4)});
    }
  }

  std::printf("Fixed-terminal study [9]: flat LIFO FM, 2%% balance, %zu "
              "runs, scale %.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt,
       "Effect of fixed vertices on solution quality and variance");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
