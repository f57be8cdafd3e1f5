// Scaling report for the deterministic parallel multistart engine:
// wall-clock speedup and per-start CPU invariance at 1/2/4/8 threads.
//
// Every row re-runs the same multistart (same instance, same seed) at a
// different thread count and checks that the per-start cut vector and the
// best cut are bit-identical to the serial run — the determinism
// guarantee of src/part/core/multistart.h, surfaced as a bench column so
// regressions are visible in the output, not just in ctest.
//
// Expected shape: wall seconds drop roughly linearly until memory
// bandwidth and the instance's start-length variance flatten the curve;
// "cpu/start" stays within timer noise of the serial value because starts
// do identical work regardless of scheduling.
//
//   --threads-list 1,2,4,8   thread counts to sweep (default: powers of
//                            two up to the machine width, always
//                            including 2 so the determinism check still
//                            exercises interleaving on one core)
//   --ml                     use the multilevel engine instead of flat FM
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "src/util/thread_pool.h"

using namespace vlsipart;
using namespace vlsipart::bench;

int main(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01",
                                         /*default_runs=*/64,
                                         /*default_scale=*/0.5,
                                         {"threads-list", "ml"});
  const CliArgs args(argc, argv);
  // Detect hardware concurrency exactly once.  hardware_concurrency()
  // legitimately returns 0 when the count is unknowable (common in
  // containers); that is NOT the same as a single-core machine, and the
  // single-core warning must not fire for it.
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : static_cast<std::size_t>(hw_raw);
  std::string default_list = "1,2";
  for (std::size_t t = 4; t <= std::min<std::size_t>(hw, 64); t *= 2) {
    default_list += ',';
    default_list += std::to_string(t);
  }
  std::vector<std::size_t> thread_counts;
  for (const auto& s : args.get_list("threads-list", default_list)) {
    std::size_t pos = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(s, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != s.size() || value == 0) {
      std::fprintf(stderr,
                   "bench_multistart_scaling: bad --threads-list entry "
                   "'%s' (want positive integers, e.g. 1,2,4,8)\n",
                   s.c_str());
      return 2;
    }
    thread_counts.push_back(static_cast<std::size_t>(value));
  }
  const bool use_ml = args.get_bool("ml");

  auto make_engine = [&]() -> std::unique_ptr<Bipartitioner> {
    if (use_ml) return std::make_unique<MlPartitioner>(ml_config(our_lifo()));
    return std::make_unique<FlatFmPartitioner>(our_lifo());
  };

  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    const PartitionProblem problem = make_problem(h, 0.02);
    std::printf(
        "=== multistart scaling, %s (%zu cells, %zu starts, %s, "
        "%s hardware threads)\n\n",
        name.c_str(), h.num_vertices(), opt.runs,
        make_engine()->name().c_str(),
        hw_raw == 0 ? "unknown" : std::to_string(hw).c_str());
    if (hw_raw == 1) {
      std::printf(
          "note: single hardware thread — expect no wall-clock speedup; "
          "the sweep still verifies determinism under interleaving.\n\n");
    }

    TextTable table({"threads", "wall s", "speedup", "cpu s", "cpu/start ms",
                     "best cut", "identical"});
    MultistartResult serial;
    for (const std::size_t t : thread_counts) {
      auto engine = make_engine();
      const MultistartResult r =
          run_multistart(problem, *engine, opt.runs, opt.seed, t);
      if (t == thread_counts.front()) serial = r;
      bool identical = r.best_cut == serial.best_cut &&
                       r.best_parts == serial.best_parts &&
                       r.starts.size() == serial.starts.size();
      for (std::size_t i = 0; identical && i < r.starts.size(); ++i) {
        identical = r.starts[i].cut == serial.starts[i].cut &&
                    r.starts[i].feasible == serial.starts[i].feasible;
      }
      table.add_row(
          {std::to_string(t), fmt_fixed(r.wall_seconds, 3),
           fmt_fixed(serial.wall_seconds / r.wall_seconds, 2) + "x",
           fmt_fixed(r.total_cpu_seconds, 3),
           fmt_fixed(1e3 * r.avg_cpu_seconds(), 3),
           std::to_string(static_cast<long long>(r.best_cut)),
           identical ? "yes" : "NO"});
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %zu threads on %s\n", t,
                     name.c_str());
        return 1;
      }
    }
    emit(table, opt, "Multistart scaling (serial-relative speedup)");
  }
  return 0;
}
