// Regenerates the paper's prescribed "best-so-far (BSF) curve" reporting
// artifact (Sec. 3.2, after Barr et al. [5]): expected best cut versus
// CPU budget tau in the multistart regime, for each engine.
//
// Expected shape: the ML engine's curve lies below flat FM at every
// budget beyond its first start; flat FM occupies the smallest budgets
// (a single flat start is cheaper than a single ML start).
#include "bench/bench_common.h"
#include "src/eval/bsf.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/30,
                                         /*default_scale=*/0.35);
  const std::vector<std::size_t> ks = {1, 2, 4, 8, 16, 30, 50, 100};

  struct Engine {
    const char* label;
    bool ml;
    FmConfig cfg;
  };
  const Engine engines[] = {
      {"flat-LIFO-FM", false, our_lifo()},
      {"flat-CLIP-FM", false, our_clip()},
      {"ML-LIFO-FM", true, our_lifo()},
      {"ML-CLIP-FM", true, our_clip()},
  };

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);
    std::printf("=== BSF curves, %s (2%% balance, %zu sampled starts)\n\n",
                name.c_str(), opt.runs);
    TextTable table({"tau (cpu s)", "starts", "engine", "E[best cut]"});
    for (const Engine& e : engines) {
      MultistartResult r;
      if (e.ml) {
        MlPartitioner engine(ml_config(e.cfg));
        r = run_multistart(problem, engine, opt.runs, opt.seed, opt.threads);
      } else {
        FlatFmPartitioner engine(e.cfg);
        r = run_multistart(problem, engine, opt.runs, opt.seed, opt.threads);
      }
      const Sample cuts = r.cut_sample();
      const auto curve = expected_bsf_curve(
          cuts, r.avg_cpu_seconds(),
          std::vector<std::size_t>(ks.begin(), ks.end()));
      for (const BsfPoint& pt : curve) {
        table.add_row({fmt_fixed(pt.cpu_seconds, 3),
                       std::to_string(pt.starts), e.label,
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
