// Shared driver for Tables 4 and 5: evaluation of the hMetis-1.5-like
// multilevel partitioner across multistart "Configurations" 1-6
// (starts = 1, 2, 4, 8, 16, 100), with V-cycling of the best result, on
// the IBM test cases — exactly the protocol of Sec. 3.2.  Each cell is
// (average best cut / average CPU seconds) over `repeats` repetitions of
// the whole configuration.
//
// Expected shape: average cut decreases monotonically (roughly) with
// more starts while CPU grows ~linearly; looser (10%) tolerance yields
// uniformly lower cuts than 2%.
#pragma once

#include "bench/bench_common.h"
#include "src/util/stats.h"

namespace vlsipart::bench {

inline int run_table45(int argc, char** argv, double tolerance,
                       const char* table_name) {
  const BenchOptions opt = parse_options(
      argc, argv, "ibm01,ibm02,ibm03,ibm04,ibm05,ibm06,ibm10,ibm14,ibm18",
      /*default_runs=*/1, /*default_scale=*/0.2,
      {"repeats", "configs", "vcycles", "threads"});
  const CliArgs args(argc, argv);
  const auto repeats = static_cast<std::size_t>(
      args.get_int("repeats", opt.full ? 50 : 2));
  std::vector<std::size_t> start_configs = {1, 2, 4, 8, 16, 100};
  if (!opt.full && !args.has("configs")) {
    start_configs = {1, 2, 4, 8, 16, 32};
  }
  if (args.has("configs")) {
    start_configs.clear();
    for (const auto& s : args.get_list("configs", "")) {
      start_configs.push_back(static_cast<std::size_t>(std::stoul(s)));
    }
  }
  const auto vcycles = static_cast<std::size_t>(args.get_int("vcycles", 1));

  std::vector<std::string> header = {"Circuit"};
  for (std::size_t c = 0; c < start_configs.size(); ++c) {
    header.push_back("cfg" + std::to_string(c + 1) + " (n=" +
                     std::to_string(start_configs[c]) + ")");
  }
  TextTable table(std::move(header));

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, tolerance);
    std::vector<std::string> row = {name};
    for (std::size_t c = 0; c < start_configs.size(); ++c) {
      RunningStats cut_stats;
      RunningStats cpu_stats;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        MlPartitioner engine(ml_config(our_lifo()));
        const std::uint64_t seed =
            opt.seed + 1000 * rep + 37 * (c + 1);
        const MultistartResult r = run_hmetis_like(
            problem, engine, start_configs[c], vcycles, seed, opt.threads);
        cut_stats.add(static_cast<double>(r.best_cut));
        cpu_stats.add(r.total_cpu_seconds);
      }
      row.push_back(fmt_cut_cpu(cut_stats.mean(), cpu_stats.mean()));
    }
    table.add_row(std::move(row));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n%s: avg best cut / avg CPU sec; tolerance %.0f%%, %zu "
              "repeat(s), %zu V-cycle(s) on best, scale %.2f\n\n",
              table_name, tolerance * 100.0, repeats, vcycles, opt.scale);
  emit(table, opt, table_name);
  return 0;
}

}  // namespace vlsipart::bench
