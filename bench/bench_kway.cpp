// k-way partitioning bench (the paper's named future-work direction,
// Sec. 4: "the difficulty of multi-way partitioning").
//
// Sweeps k in {2, 4, 8, 16} via recursive bisection, with and without
// the direct k-way FM polish, reporting k-way cut and CPU.
//
// Expected shape: cut grows with k (more boundaries); the direct k-way
// polish recovers cut relative to raw recursive bisection, most visibly
// at larger k where the fixed block hierarchy costs the most.
#include "bench/bench_common.h"
#include "src/part/kway/kway_refiner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/util/timer.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/1,
                                         /*default_scale=*/0.5);

  TextTable table({"case", "k", "RB cut", "RB+polish cut",
                   "RB+polish+LA cut", "improvement", "cpu (s)"});

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    for (const std::size_t k : {2, 4, 8, 16}) {
      KwayConfig raw;
      raw.k = k;
      raw.tolerance = 0.10;
      raw.seed = opt.seed;
      raw.refine_passes = 0;
      KwayConfig polished = raw;
      polished.refine_passes = 3;

      const KwayResult a = recursive_bisection(h, raw);
      CpuTimer timer;
      const KwayResult b = recursive_bisection(h, polished);
      const double cpu = timer.elapsed();

      // Sanchis level-gain polish on top of the RB solution.
      KwayState state(h, k);
      state.assign(a.parts);
      KwayProblem problem = KwayProblem::uniform(h, k, raw.tolerance);
      KwayFmConfig la;
      la.max_passes = 3;
      la.lookahead_depth = 3;
      KwayFmRefiner refiner(problem, la);
      Rng rng(opt.seed);
      refiner.refine(state, rng);
      const Weight la_cut = kway_cut(h, state.parts());

      const double gain =
          a.cut > 0 ? 100.0 * static_cast<double>(a.cut - b.cut) /
                          static_cast<double>(a.cut)
                    : 0.0;
      table.add_row({name, std::to_string(k), std::to_string(a.cut),
                     std::to_string(b.cut), std::to_string(la_cut),
                     fmt_fixed(gain, 1) + "%", fmt_fixed(cpu, 3)});
    }
  }

  std::printf("k-way partitioning: recursive bisection with/without direct "
              "k-way FM polish, 10%% tolerance, scale %.2f\n\n",
              opt.scale);
  emit(table, opt, "k-way cut vs k");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
