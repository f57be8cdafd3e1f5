// Regenerates the paper's prescribed "best-so-far (BSF) curve" reporting
// artifact (Sec. 3.2, after Barr et al. [5]): expected best cut versus
// CPU budget tau in the multistart regime, for each engine.
//
// Expected shape: the ML engine's curve lies below flat FM at every
// budget beyond its first start; flat FM occupies the smallest budgets
// (a single flat start is cheaper than a single ML start).  Budgets
// beyond --runs have no sample behind them and are not printed (--full
// samples 100 starts and prints them all).
#include "bench/bench_common.h"
#include "src/eval/report.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/30,
                                         /*default_scale=*/0.35,
                                         {"threads"});
  const double tolerance = 0.02;
  const std::vector<LabeledSpec> engines = {
      {"flat-LIFO-FM", multistart_spec(opt, "flat", our_lifo(), tolerance)},
      {"flat-CLIP-FM", multistart_spec(opt, "clip", our_lifo(), tolerance)},
      {"ML-LIFO-FM", multistart_spec(opt, "ml", our_lifo(), tolerance)},
      {"ML-CLIP-FM", multistart_spec(opt, "ml", our_clip(), tolerance)},
  };
  ComparisonConfig config;
  config.budgets = {1, 2, 4, 8, 16, 30, 50, 100};

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const ComparisonReport report = compare_engines(h, engines, config);
    std::printf("=== BSF curves, %s (2%% balance, %zu sampled starts)\n\n",
                name.c_str(), opt.runs);
    TextTable table({"tau (cpu s)", "starts", "engine", "E[best cut]"});
    for (const EngineReport& e : report.engines) {
      for (const BsfPoint& pt : e.bsf) {
        table.add_row({fmt_fixed(pt.cpu_seconds, 3),
                       std::to_string(pt.starts), e.name,
                       fmt_fixed(pt.expected_cost, 1)});
      }
    }
    emit(table, opt, "BSF data (plot tau vs E[best cut] per engine)");
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
