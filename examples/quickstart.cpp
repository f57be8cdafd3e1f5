// Quickstart: generate an ISPD98-like instance, bipartition it with flat
// FM, CLIP FM and the multilevel engine, and print a comparison.
//
// Usage:
//   quickstart [--case ibm01|small|medium] [--tolerance 0.02]
//              [--starts 4] [--seed 1] [--scale 1.0]
#include <cstdio>

#include "src/gen/netlist_gen.h"
#include "src/hypergraph/stats.h"
#include "src/part/engine.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace vlsipart;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"case", "scale", "seed", "starts", "tolerance"});
  const std::string case_name = args.get("case", "small");
  const double tolerance = args.get_double("tolerance", 0.02);
  const auto starts = static_cast<std::size_t>(args.get_int("starts", 4));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const double scale = args.get_double("scale", 1.0);

  // 1. Build (or load) a hypergraph.  Generated instances follow the
  //    ISPD98 statistical profile; see src/io/ to load real .hgr/.netD.
  const GenConfig config = preset(case_name).scaled(scale);
  const Hypergraph h = generate_netlist(config);
  std::printf("%s\n\n", compute_stats(h).to_string(h.name()).c_str());

  // 2. Define the run: 2-way, actual areas, the paper's balance
  //    tolerance (2% -> parts in [49%, 51%] of total area), the same
  //    multistart regime for every engine (vcycles = 0: no trailing
  //    V-cycles on the ML winner).
  std::printf("balance window: %s\n\n",
              BalanceConstraint::from_tolerance(h.total_vertex_weight(),
                                                tolerance)
                  .to_string()
                  .c_str());
  EngineSpec spec;
  spec.tolerance = tolerance;
  spec.starts = starts;
  spec.seed = seed;
  spec.vcycles = 0;

  // 3. Compare engines through the front door (src/part/engine.h).
  //    Default FmConfig: LIFO insertion, Nonzero updates, Away bias; the
  //    clip engine adds CLIP keys and the corking fix of Sec. 2.3.
  TextTable table({"engine", "min cut", "avg cut", "avg cpu (s)"});
  auto report = [&](const char* label, const char* engine, bool ml_clip) {
    spec.engine = engine;
    spec.fm.clip = ml_clip;
    spec.fm.exclude_oversized = ml_clip;
    const MultistartResult r = run_engine(spec, h).multistart;
    table.add_row({label, std::to_string(r.min_cut()),
                   fmt_fixed(r.avg_cut(), 1),
                   fmt_fixed(r.avg_cpu_seconds(), 3)});
  };
  report("flat LIFO FM", "flat", false);
  report("flat CLIP FM", "clip", false);
  report("ML LIFO FM", "ml", false);
  report("ML CLIP FM", "ml", true);

  std::printf("%zu independent starts each, seed %llu:\n\n%s\n", starts,
              static_cast<unsigned long long>(seed),
              table.to_string().c_str());
  std::printf(
      "Expected shape (paper, Table 1): ML CLIP >= ML LIFO >= flat CLIP >= "
      "flat LIFO in solution quality; flat engines are fastest.\n");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
