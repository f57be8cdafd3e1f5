// Clustering ablation for multilevel FM — the paper's own named open
// question: "we believe that the effects of clustering in multilevel FM
// and the difficulty of multi-way partitioning are two fundamental gaps
// in knowledge" (Sec. 4).
//
// Sweeps the three clustering knobs of the ML engine — coarsest-level
// target size, maximum cluster weight, and the net-size cap for
// heavy-edge ratings — reporting average cut and CPU.
//
// Expected shape: quality degrades when coarsening is stopped too early
// (huge coarsest graph = expensive, weak initial solutions) or pushed
// too far / with oversized clusters (coarse graph too inflexible to
// balance); rating very large nets costs CPU without helping quality.
#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

namespace {

void sweep(const std::vector<Hypergraph>& graphs, const BenchOptions& opt,
           const std::string& title,
           const std::vector<std::pair<std::string, MlConfig>>& configs) {
  std::vector<std::string> header = {"setting"};
  for (const auto& n : opt.cases) {
    header.push_back(n + " cut");
    header.push_back(n + " cpu");
  }
  TextTable table(std::move(header));
  for (const auto& [label, config] : configs) {
    std::vector<std::string> row = {label};
    for (const Hypergraph& h : graphs) {
      const PartitionProblem problem = make_problem(h, 0.02);
      MlPartitioner engine(config);
      const MultistartResult r =
          run_multistart(problem, engine, opt.runs, opt.seed);
      row.push_back(fmt_fixed(r.avg_cut(), 1));
      row.push_back(fmt_fixed(r.avg_cpu_seconds(), 4));
    }
    table.add_row(std::move(row));
  }
  emit(table, opt, title);
}

}  // namespace

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/10,
                                         /*default_scale=*/0.5);

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  std::printf("Clustering ablation (Sec. 4 open question): ML LIFO FM, 2%% "
              "balance, avg over %zu runs, scale %.2f\n\n",
              opt.runs, opt.scale);

  {
    std::vector<std::pair<std::string, MlConfig>> configs;
    for (const std::size_t target : {40, 120, 400, 1200}) {
      MlConfig c = ml_config(our_lifo());
      c.coarsen.coarsen_to = target;
      configs.emplace_back("coarsen_to=" + std::to_string(target), c);
    }
    sweep(graphs, opt, "Coarsest-level target size", configs);
  }
  {
    // Cluster-weight caps are instance-relative (total/divisor), so this
    // sweep resolves the cap per instance rather than via sweep().
    std::vector<std::string> header = {"setting"};
    for (const auto& n : opt.cases) {
      header.push_back(n + " cut");
      header.push_back(n + " cpu");
    }
    TextTable table(std::move(header));
    for (const int divisor : {400, 120, 30, 8}) {
      std::vector<std::string> row = {"cap=total/" +
                                      std::to_string(divisor)};
      for (const Hypergraph& h : graphs) {
        MlConfig c = ml_config(our_lifo());
        c.coarsen.max_cluster_weight = std::max<Weight>(
            h.max_vertex_weight(),
            h.total_vertex_weight() / divisor);
        const PartitionProblem problem = make_problem(h, 0.02);
        MlPartitioner engine(c);
        const MultistartResult r =
            run_multistart(problem, engine, opt.runs, opt.seed);
        row.push_back(fmt_fixed(r.avg_cut(), 1));
        row.push_back(fmt_fixed(r.avg_cpu_seconds(), 4));
      }
      table.add_row(std::move(row));
    }
    emit(table, opt, "Maximum cluster weight");
  }
  {
    std::vector<std::pair<std::string, MlConfig>> configs;
    for (const std::size_t cap : {8, 64, 512}) {
      MlConfig c = ml_config(our_lifo());
      c.coarsen.max_rated_net_size = cap;
      configs.emplace_back("rate nets <= " + std::to_string(cap), c);
    }
    sweep(graphs, opt, "Heavy-edge rating net-size cap", configs);
  }
  {
    std::vector<std::pair<std::string, MlConfig>> configs;
    {
      MlConfig c = ml_config(our_lifo());
      c.coarsen.scheme = CoarsenScheme::kFirstChoice;
      configs.emplace_back("first-choice clustering", c);
    }
    {
      MlConfig c = ml_config(our_lifo());
      c.coarsen.scheme = CoarsenScheme::kHeavyEdgeMatching;
      configs.emplace_back("heavy-edge matching (pairs)", c);
    }
    sweep(graphs, opt, "Clustering scheme", configs);
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
