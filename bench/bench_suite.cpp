// Whole-suite summary — the classic cross-benchmark comparison table of
// the partitioning literature: per-instance average cuts for every
// engine across all 18 ibm presets, plus the geometric mean of each
// engine's cut ratio to the flat LIFO FM baseline.  "A wide range of
// instance sizes best emulates the actual use model" (Sec. 3.2).
//
// Expected shape: ratio ordering ML CLIP < ML LIFO < flat CLIP < 1.0
// (flat LIFO baseline), stable across the suite.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  std::string all_cases;
  for (const auto& name : ibm_preset_names()) {
    if (!all_cases.empty()) all_cases += ",";
    all_cases += name;
  }
  const BenchOptions opt = parse_options(argc, argv, all_cases,
                                         /*default_runs=*/3,
                                         /*default_scale=*/0.1);

  struct Engine {
    const char* label;
    bool ml;
    FmConfig cfg;
  };
  const Engine engines[] = {
      {"flat-LIFO", false, our_lifo()},
      {"flat-CLIP", false, our_clip()},
      {"ML-LIFO", true, our_lifo()},
      {"ML-CLIP", true, our_clip()},
  };

  std::vector<std::string> header = {"circuit", "vertices"};
  for (const Engine& e : engines) header.push_back(e.label);
  TextTable table(std::move(header));

  Sample ratios[4];
  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);
    std::vector<std::string> row = {name,
                                    std::to_string(h.num_vertices())};
    double baseline = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      MultistartResult r;
      if (engines[i].ml) {
        MlPartitioner engine(ml_config(engines[i].cfg));
        r = run_multistart(problem, engine, opt.runs, opt.seed);
      } else {
        FlatFmPartitioner engine(engines[i].cfg);
        r = run_multistart(problem, engine, opt.runs, opt.seed);
      }
      const double avg = r.avg_cut();
      if (i == 0) baseline = avg;
      if (baseline > 0.0 && avg > 0.0) {
        ratios[i].add(avg / baseline);
      }
      row.push_back(fmt_fixed(avg, 1));
    }
    table.add_row(std::move(row));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\nSuite summary: avg cut over %zu runs, 2%% balance, scale "
              "%.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "Per-instance average cuts");

  TextTable gmeans({"engine", "gmean cut ratio vs flat-LIFO"});
  for (std::size_t i = 0; i < 4; ++i) {
    gmeans.add_row({engines[i].label,
                    fmt_fixed(ratios[i].geometric_mean(), 3)});
  }
  emit(gmeans, opt, "Geometric-mean ratios (lower is better)");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
