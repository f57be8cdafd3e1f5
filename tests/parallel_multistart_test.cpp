// Determinism tests for the multistart harness: run_multistart must
// return bit-identical results at 1, 2 and 8 threads (the guarantee
// documented in src/part/core/multistart.h), and the per-engine scratch
// reuse must never leak state between starts or calls.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/eval/bsf.h"
#include "src/gen/netlist_gen.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

void expect_same_result(const MultistartResult& a, const MultistartResult& b,
                        const char* label) {
  ASSERT_EQ(a.starts.size(), b.starts.size()) << label;
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    EXPECT_EQ(a.starts[i].cut, b.starts[i].cut) << label << " start " << i;
    EXPECT_EQ(a.starts[i].feasible, b.starts[i].feasible)
        << label << " start " << i;
  }
  EXPECT_EQ(a.best_cut, b.best_cut) << label;
  EXPECT_EQ(a.best_parts, b.best_parts) << label;
}

/// Flat FM engine that counts clone() calls, so a test can tell whether
/// the harness ran on the caller's engine or on per-worker clones.
class CloneCountingEngine final : public Bipartitioner {
 public:
  explicit CloneCountingEngine(std::size_t* clones) : clones_(clones) {}

  std::string name() const override { return "clone-counting"; }
  Weight run(const PartitionProblem& problem, Rng& rng,
             std::vector<PartId>& parts) override {
    return inner_.run(problem, rng, parts);
  }
  Weight run_start(const PartitionProblem& problem, Rng& rng,
                   std::vector<PartId>& parts,
                   std::size_t start_index) override {
    return inner_.run_start(problem, rng, parts, start_index);
  }
  std::unique_ptr<Bipartitioner> clone() const override {
    ++*clones_;  // the harness clones before its pool starts
    return std::make_unique<CloneCountingEngine>(clones_);
  }

 private:
  std::size_t* clones_;
  FlatFmPartitioner inner_{FmConfig{}};
};

void expect_same_work(const UpdateWork& a, const UpdateWork& b,
                      const char* label) {
  EXPECT_EQ(a.nets_skipped_noncritical, b.nets_skipped_noncritical) << label;
  EXPECT_EQ(a.nets_walked, b.nets_walked) << label;
  EXPECT_EQ(a.nonzero_delta_updates, b.nonzero_delta_updates) << label;
  EXPECT_EQ(a.zero_delta_updates, b.zero_delta_updates) << label;
}

TEST(ParallelMultistart, FlatEngineBitIdenticalAcrossThreadCounts) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner serial_engine{FmConfig{}};
  const MultistartResult serial = run_multistart(p, serial_engine, 16, 42, 1);
  EXPECT_EQ(serial.threads_used, 1u);
  for (const std::size_t threads : {2u, 8u}) {
    FlatFmPartitioner engine{FmConfig{}};
    const MultistartResult r = run_multistart(p, engine, 16, 42, threads);
    EXPECT_EQ(r.threads_used, std::min<std::size_t>(threads, 16));
    expect_same_result(serial, r, "flat");
  }
}

TEST(ParallelMultistart, ClipEngineBitIdenticalAcrossThreadCounts) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  FmConfig cfg;
  cfg.clip = true;
  cfg.exclude_oversized = true;
  FlatFmPartitioner serial_engine{cfg};
  const MultistartResult serial = run_multistart(p, serial_engine, 12, 7, 1);
  for (const std::size_t threads : {2u, 8u}) {
    FlatFmPartitioner engine{cfg};
    const MultistartResult r = run_multistart(p, engine, 12, 7, threads);
    expect_same_result(serial, r, "clip");
  }
}

TEST(ParallelMultistart, MlEngineBitIdenticalAcrossThreadCounts) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlPartitioner serial_engine{MlConfig{}};
  const MultistartResult serial = run_multistart(p, serial_engine, 6, 11, 1);
  for (const std::size_t threads : {2u, 8u}) {
    MlPartitioner engine{MlConfig{}};
    const MultistartResult r = run_multistart(p, engine, 6, 11, threads);
    expect_same_result(serial, r, "ml");
  }
}

TEST(ParallelMultistart, MixedInitialSchemeKeyedByStartIndex) {
  // kMixed alternates the initial generator by start index; the parallel
  // path must key the alternation on the index, not on per-engine call
  // counts, to match the serial schedule.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner serial_engine{FmConfig{}, "", InitialScheme::kMixed};
  const MultistartResult serial = run_multistart(p, serial_engine, 8, 5, 1);
  FlatFmPartitioner engine{FmConfig{}, "", InitialScheme::kMixed};
  const MultistartResult r = run_multistart(p, engine, 8, 5, 4);
  expect_same_result(serial, r, "mixed");

  // Reusing one engine across calls must not shift the alternation: with
  // an odd start count, a per-engine call counter would leave the second
  // call starting on the other generator.
  FlatFmPartitioner parallel_engine{FmConfig{}, "", InitialScheme::kMixed};
  const MultistartResult parallel =
      run_multistart(p, parallel_engine, 3, 5, 2);
  FlatFmPartitioner reused{FmConfig{}, "", InitialScheme::kMixed};
  const MultistartResult first = run_multistart(p, reused, 3, 5, 1);
  const MultistartResult second = run_multistart(p, reused, 3, 5, 1);
  expect_same_result(parallel, first, "mixed reused, first call");
  expect_same_result(parallel, second, "mixed reused, second call");
}

TEST(ParallelMultistart, OneWorkerRunsInlineWithoutClone) {
  // One worker (one thread, or one start) runs on the caller's engine;
  // only a multi-worker run clones, once per worker.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  std::size_t clones = 0;
  CloneCountingEngine engine(&clones);
  const MultistartResult serial = run_multistart(p, engine, 4, 9, 1);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(clones, 0u);
  const MultistartResult one_start = run_multistart(p, engine, 1, 9, 8);
  EXPECT_EQ(one_start.threads_used, 1u);
  EXPECT_EQ(clones, 0u);
  const MultistartResult parallel = run_multistart(p, engine, 4, 9, 2);
  EXPECT_EQ(parallel.threads_used, 2u);
  EXPECT_EQ(clones, 2u);
  expect_same_result(serial, parallel, "clone-counting");
}

TEST(ParallelMultistart, InlineUpdateWorkIsPerCallDelta) {
  // The inline path reads work off the caller's engine, whose counters
  // keep growing across calls; each call must report only its own
  // starts, the same sums a parallel run collects from fresh clones.
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner parallel_engine{FmConfig{}};
  const UpdateWork parallel =
      run_multistart(p, parallel_engine, 6, 13, 2).update_work;
  EXPECT_GT(parallel.nets_walked, 0u);
  FlatFmPartitioner reused{FmConfig{}};
  const UpdateWork first = run_multistart(p, reused, 6, 13, 1).update_work;
  const UpdateWork second = run_multistart(p, reused, 6, 13, 1).update_work;
  expect_same_work(parallel, first, "first inline call");
  expect_same_work(parallel, second, "second inline call");
}

TEST(ParallelMultistart, BsfCurveIdenticalAcrossThreadCounts) {
  // A CPU budget is answered by a prefix of the record (multistart.h), so
  // the best-so-far cut after each start count must not depend on the
  // thread count; only the measured CPU column may differ.
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner serial_engine{FmConfig{}};
  const MultistartResult serial = run_multistart(p, serial_engine, 12, 21, 1);
  const std::vector<BsfPoint> ref = observed_bsf_curve(serial.starts);
  ASSERT_EQ(ref.size(), 12u);
  EXPECT_DOUBLE_EQ(ref.back().expected_cost,
                   static_cast<double>(serial.best_cut));
  for (const std::size_t threads : {2u, 8u}) {
    FlatFmPartitioner engine{FmConfig{}};
    const MultistartResult r = run_multistart(p, engine, 12, 21, threads);
    const std::vector<BsfPoint> curve = observed_bsf_curve(r.starts);
    ASSERT_EQ(curve.size(), ref.size()) << threads << " threads";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(curve[i].starts, ref[i].starts) << threads << " threads";
      EXPECT_DOUBLE_EQ(curve[i].expected_cost, ref[i].expected_cost)
          << threads << " threads, start " << i;
    }
  }
}

TEST(ParallelMultistart, ZeroStartsReturnsEmptyResult) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 0, 1, 4);
  EXPECT_TRUE(r.starts.empty());
  EXPECT_TRUE(r.best_parts.empty());
  EXPECT_EQ(r.best_cut, 0);
  EXPECT_EQ(r.threads_used, 1u);
  EXPECT_EQ(r.total_cpu_seconds, 0.0);
}

TEST(ParallelMultistart, ScratchReuseMatchesFreshEngines) {
  // The reused state/refiner scratch inside FlatFmPartitioner must make
  // every run independent of the runs before it.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  Rng base(77);

  FlatFmPartitioner reused{FmConfig{}};
  std::vector<PartId> parts;
  std::vector<Weight> reused_cuts;
  for (std::size_t i = 0; i < 4; ++i) {
    Rng rng = base.fork(i);
    reused_cuts.push_back(reused.run_start(p, rng, parts, i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    FlatFmPartitioner fresh{FmConfig{}};
    Rng rng = base.fork(i);
    std::vector<PartId> fresh_parts;
    EXPECT_EQ(fresh.run_start(p, rng, fresh_parts, i), reused_cuts[i])
        << "start " << i;
  }
}

TEST(ParallelMultistart, WallClockAndCpuFieldsPopulated) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 4, 1, 2);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.total_cpu_seconds, 0.0);
  EXPECT_EQ(r.threads_used, 2u);
  double sum = 0.0;
  for (const auto& s : r.starts) sum += s.cpu_seconds;
  EXPECT_NEAR(sum, r.total_cpu_seconds, 1e-9);
}

}  // namespace
}  // namespace vlsipart
