// Randomization-noise decomposition (Brglez [7], cited in Sec. 3.2:
// "Which Improvements Are Due to Improved Heuristic and Which are Merely
// Due to Chance?").
//
// Two variance sources confound partitioner comparisons:
//   * within-instance: multistart spread of the heuristic on one
//     instance (heuristic randomization), and
//   * between-instance: spread across statistically identical instances
//     (benchmark sampling — here, re-seeds of the same generator preset).
// This bench reports both components plus a significance check of a real
// effect (CLIP-fix vs no fix) against the combined noise.
//
// Expected shape: both components are nonzero and of comparable order.
// The corking fix's advantage is large on average but its significance
// depends on the sample size — exactly Brglez's warning: whether a real
// effect survives the noise is a property of the experiment design, not
// just of the algorithm.
#include "bench/bench_common.h"
#include "src/eval/significance.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5,
                                         {"instances"});
  const CliArgs args(argc, argv);
  const auto instances =
      static_cast<std::size_t>(args.get_int("instances", 5));

  for (const auto& name : opt.cases) {
    TextTable table({"instance seed", "avg cut", "stddev (within)"});
    Sample instance_means;
    RunningStats pooled_within;
    Sample all_ours;
    Sample all_published;

    for (std::size_t i = 0; i < instances; ++i) {
      GenConfig config = preset(name).scaled(opt.scale);
      config.seed = config.seed * 131 + i;  // statistically identical twin
      const Hypergraph h = generate_netlist(config);
      const PartitionProblem problem = make_problem(h, 0.02);

      FlatFmPartitioner ours(our_clip());
      const MultistartResult r =
          run_multistart(problem, ours, opt.runs, opt.seed);
      const Sample cuts = r.cut_sample();
      instance_means.add(cuts.mean());
      pooled_within.add(cuts.stddev());
      for (const double c : cuts.values()) all_ours.add(c);

      FlatFmPartitioner published(reported_clip());
      const MultistartResult r2 =
          run_multistart(problem, published, opt.runs, opt.seed);
      const Sample published_cuts = r2.cut_sample();
      for (const double c : published_cuts.values()) {
        all_published.add(c);
      }

      table.add_row({std::to_string(config.seed),
                     fmt_fixed(cuts.mean(), 1),
                     fmt_fixed(cuts.stddev(), 1)});
    }

    std::printf("Noise decomposition on %s twins (CLIP+fix engine, 2%%, "
                "%zu starts x %zu instances, scale %.2f)\n\n",
                name.c_str(), opt.runs, instances, opt.scale);
    emit(table, opt, "Per-instance multistart statistics");

    TextTable components({"component", "value"});
    components.add_row({"between-instance stddev of avg cut",
                        fmt_fixed(instance_means.stddev(), 1)});
    components.add_row({"mean within-instance stddev",
                        fmt_fixed(pooled_within.mean(), 1)});
    emit(components, opt, "Variance components");

    std::printf("Effect check (pooled over all twins):\n  %s\n\n",
                describe_comparison("CLIP+fix", all_ours,
                                    "CLIP as published", all_published)
                    .c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
