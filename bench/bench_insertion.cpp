// Ablation of gain-bucket insertion order: LIFO vs FIFO vs Random.
//
// Section 2.2 cites Hagen-Huang-Kahng [21]: "inserting moves into gain
// buckets in LIFO order is much preferable to doing so in FIFO order ...
// or at random.  Since the work of [21], all FM implementations that we
// are aware of use LIFO insertion."  This bench reproduces that ranking
// on the flat FM engine.
//
// Expected shape: LIFO < Random < FIFO in average cut (lower is better),
// with a pronounced LIFO advantage.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5);

  std::vector<std::string> header = {"Insertion"};
  for (const auto& name : opt.cases) header.push_back(name);
  TextTable table(std::move(header));

  const InsertOrder orders[] = {InsertOrder::kLifo, InsertOrder::kFifo,
                                InsertOrder::kRandom};
  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  for (const InsertOrder order : orders) {
    FmConfig cfg = our_lifo();
    cfg.insert_order = order;
    std::vector<std::string> row = {name_of(order)};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.02);
      FlatFmPartitioner engine(cfg);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      row.push_back(
          fmt_min_avg(static_cast<double>(r.min_cut()), r.avg_cut()));
    }
    table.add_row(std::move(row));
  }

  std::printf(
      "Insertion-order ablation [21]: flat FM, 2%% balance, min/avg over "
      "%zu runs, scale %.2f\n\n",
      opt.runs, opt.scale);
  emit(table, opt, "Gain-bucket insertion order");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
