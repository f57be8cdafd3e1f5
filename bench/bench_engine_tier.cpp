// Engine-tier comparison: every engine of the registry (ML, flat LIFO,
// flat CLIP, n-level, memetic) head to head on ibm-class instances —
// min/avg cut and CPU per engine at equal multistart budgets, plus each
// engine's best-seen cut so the n-level/evo acceptance bar ("beat the
// flat-FM best seen") is read straight off the table.
//
// The evo engine runs fewer starts (each start is an entire population
// evolution, ~population + generations*offspring ML descents); its
// --runs are divided by the configured work factor so the table compares
// comparable CPU, and the CPU column reports what was actually spent.
//
// Default: ibm01-03 at scale 0.3, 20 runs.  EXPERIMENTS.md tables use
// --cases ibm01,ibm02,ibm03 --scale 0.3 --runs 20 --csv.
//
// Beyond the common flags:
//   --threads T          the run's thread budget (EngineSpec::threads)
//   --refine-threads N   intra-run refinement threads (default 1 = serial
//                        FM; >1 = the synchronous-round parallel engine)
//   --coarsen-threads N  intra-run coarsening threads (default 1 =
//                        serial; >1 = deterministic parallel rating)
#include <algorithm>

#include "bench/bench_common.h"
#include "src/part/engine.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.3,
                                         {"threads", "refine-threads",
                                          "coarsen-threads"});
  const CliArgs args(argc, argv);

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  std::printf(
      "Engine tier: min/avg cut and CPU, 10%% balance, %zu runs, scale "
      "%.2f\n\n",
      opt.runs, opt.scale);

  std::vector<std::string> header = {"Engine", "Metric"};
  for (const auto& name : opt.cases) header.push_back(name);
  TextTable table(std::move(header));

  // Every registered engine through the front door.  vcycles = 0 makes
  // the ml run a plain run_multistart, like every other engine here.
  EngineSpec spec;
  spec.tolerance = 0.10;
  spec.vcycles = 0;
  spec.seed = opt.seed;
  spec.threads = opt.threads;
  spec.fm = our_lifo();
  spec.fm.refine_threads =
      static_cast<std::size_t>(args.get_int("refine-threads", 1));
  spec.ml.coarsen.coarsen_threads =
      static_cast<std::size_t>(args.get_int("coarsen-threads", 1));
  for (const EngineInfo& info : engine_registry()) {
    spec.engine = info.name;
    // evo amortizes many ML descents per start.
    const std::size_t runs_divisor = info.kind == EngineKind::kEvo ? 4 : 1;
    spec.starts = std::max<std::size_t>(1, opt.runs / runs_divisor);
    std::vector<std::string> min_row = {info.name, "min cut"};
    std::vector<std::string> avg_row = {info.name, "avg cut"};
    std::vector<std::string> cpu_row = {info.name, "CPU s"};
    for (const Hypergraph& h : graphs) {
      const MultistartResult r = run_engine(spec, h).multistart;
      min_row.push_back(std::to_string(r.min_cut()));
      avg_row.push_back(fmt_fixed(r.avg_cut(), 1));
      cpu_row.push_back(fmt_fixed(r.total_cpu_seconds, 2));
    }
    table.add_row(std::move(min_row));
    table.add_row(std::move(avg_row));
    table.add_row(std::move(cpu_row));
  }
  emit(table, opt, "Engine tier (" + std::to_string(opt.runs) +
                       " starts; evo amortized)");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
