// FM pass-profile trace — the diagnostic behind Sec. 2.3's "traces of
// CLIP executions show that corking actually occurs fairly often".
//
// Prints, for one start of each engine variant, the cut after every move
// of every pass (plot-ready: move index vs cut, one series per pass).
// A corked CLIP pass shows up as a pass with zero trace points.
//
// Usage:
//   pass_profile [--case ibm01] [--scale 0.25] [--seed 1]
//                [--tolerance 0.02] [--max-points 400]
#include <cstdio>

#include "src/gen/netlist_gen.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/util/cli.h"

using namespace vlsipart;

namespace {

void run_and_dump(const PartitionProblem& problem, const FmConfig& cfg,
                  const char* label, std::uint64_t seed,
                  std::size_t max_points) {
  Rng rng(seed);
  auto parts = random_initial(problem, rng);
  PartitionState state(*problem.graph);
  state.assign(parts);

  FmConfig traced = cfg;
  traced.record_trace = true;
  FmRefiner refiner(problem, traced);
  const FmResult r = refiner.refine(state, rng);

  std::printf("# engine=%s config=%s\n", label, cfg.to_string().c_str());
  std::printf("# initial cut %lld, final cut %lld, %zu passes, "
              "%zu zero-move (corked) passes\n",
              static_cast<long long>(r.initial_cut),
              static_cast<long long>(r.final_cut), r.passes,
              r.zero_move_passes);
  for (std::size_t p = 0; p < r.pass_traces.size(); ++p) {
    const auto& trace = r.pass_traces[p];
    if (trace.empty()) {
      std::printf("# pass %zu: CORKED (no moves)\n", p + 1);
      continue;
    }
    // Downsample long passes to at most max_points rows.
    const std::size_t stride =
        std::max<std::size_t>(1, trace.size() / max_points);
    std::printf("# pass %zu: %zu moves, cut %lld -> best-prefix %lld\n",
                p + 1, trace.size(),
                static_cast<long long>(r.pass_stats[p].cut_before),
                static_cast<long long>(r.pass_stats[p].cut_after));
    for (std::size_t m = 0; m < trace.size(); m += stride) {
      std::printf("%s %zu %zu %lld\n", label, p + 1, m + 1,
                  static_cast<long long>(trace[m]));
    }
  }
  std::printf("\n");
}

}  // namespace

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"case", "max-points", "scale", "seed", "tolerance"});
  const std::string case_name = args.get("case", "ibm01");
  const double scale = args.get_double("scale", 0.25);
  const std::uint64_t seed = args.get_uint("seed", 1);
  const double tolerance = args.get_double("tolerance", 0.02);
  const auto max_points =
      static_cast<std::size_t>(args.get_int("max-points", 400));

  const Hypergraph h = generate_netlist(preset(case_name).scaled(scale));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), tolerance);

  std::printf("# columns: engine pass move cut\n\n");

  FmConfig fm;
  run_and_dump(problem, fm, "FM", seed, max_points);

  FmConfig clip = fm;
  clip.clip = true;
  run_and_dump(problem, clip, "CLIP-as-published", seed, max_points);

  FmConfig fixed = clip;
  fixed.exclude_oversized = true;
  run_and_dump(problem, fixed, "CLIP-with-fix", seed, max_points);
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
