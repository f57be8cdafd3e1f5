// Full comparison report for all four engines on one instance — the
// paper's reporting prescription (Sec. 3.2) in one command: summary
// table, BSF curves, Pareto frontier, significance tests vs a baseline.
//
// Usage:
//   full_report [--case ibm01] [--scale 0.5] [--runs 20] [--seed 1]
//               [--tolerance 0.02] [--baseline 0]
#include <cstdio>

#include "src/eval/report.h"
#include "src/gen/netlist_gen.h"
#include "src/hypergraph/stats.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/util/cli.h"

using namespace vlsipart;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"baseline", "case", "runs", "scale", "seed", "tolerance"});
  const Hypergraph h = generate_netlist(
      preset(args.get("case", "ibm01"))
          .scaled(args.get_double("scale", 0.5)));
  std::printf("%s\n\n", compute_stats(h).to_string(h.name()).c_str());

  PartitionProblem problem;
  problem.graph = &h;
  problem.balance = BalanceConstraint::from_tolerance(
      h.total_vertex_weight(), args.get_double("tolerance", 0.02));

  FmConfig lifo;
  FmConfig clip = lifo;
  clip.clip = true;
  clip.exclude_oversized = true;

  FlatFmPartitioner flat_lifo(lifo, "flat-LIFO");
  FlatFmPartitioner flat_clip(clip, "flat-CLIP");
  MlConfig ml_lifo_cfg;
  ml_lifo_cfg.refine = lifo;
  MlPartitioner ml_lifo(ml_lifo_cfg, "ML-LIFO");
  MlConfig ml_clip_cfg;
  ml_clip_cfg.refine = clip;
  MlPartitioner ml_clip(ml_clip_cfg, "ML-CLIP");

  ComparisonConfig config;
  config.runs = static_cast<std::size_t>(args.get_int("runs", 20));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.baseline =
      static_cast<std::size_t>(args.get_int("baseline", 0));

  const ComparisonReport report = compare_engines(
      problem,
      {{"flat-LIFO", &flat_lifo},
       {"flat-CLIP", &flat_clip},
       {"ML-LIFO", &ml_lifo},
       {"ML-CLIP", &ml_clip}},
      config);
  std::printf("%s", report.to_string().c_str());
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
