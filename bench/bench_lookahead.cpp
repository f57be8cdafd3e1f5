// Ablation of Krishnamurthy lookahead tie-breaking [30], one of the FM
// refinements the paper's footnote 1 lists in the heuristic lineage.
//
// Expected shape: depth 2-3 improves average cut over arbitrary LIFO
// tie-breaking at modest runtime cost; deeper lookahead yields
// diminishing returns while the per-selection cost keeps growing.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  std::vector<std::string> header = {"Lookahead"};
  for (const auto& name : opt.cases) {
    header.push_back(name + " cut");
    header.push_back(name + " cpu");
  }
  TextTable table(std::move(header));

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  for (const int depth : {1, 2, 3, 4}) {
    FmConfig cfg = our_lifo();
    cfg.lookahead_depth = depth;
    std::vector<std::string> row = {
        depth == 1 ? "off (FM)" : "depth " + std::to_string(depth)};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.02);
      FlatFmPartitioner engine(cfg);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      row.push_back(
          fmt_min_avg(static_cast<double>(r.min_cut()), r.avg_cut()));
      row.push_back(fmt_fixed(r.avg_cpu_seconds(), 4));
    }
    table.add_row(std::move(row));
  }

  std::printf("Krishnamurthy lookahead ablation: flat FM, 2%% balance, "
              "min/avg over %zu runs, scale %.2f\n\n",
              opt.runs, opt.scale);
  emit(table, opt, "Lookahead depth sweep");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
