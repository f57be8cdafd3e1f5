// Tests for the multistart harness and its reporting aggregates.
#include <gtest/gtest.h>

#include "src/gen/netlist_gen.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"

namespace vlsipart {
namespace {

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

TEST(Multistart, RecordsEveryStart) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 7, 42);
  EXPECT_EQ(r.starts.size(), 7u);
  for (const auto& s : r.starts) {
    EXPECT_TRUE(s.feasible);
    EXPECT_GE(s.cpu_seconds, 0.0);
  }
}

TEST(Multistart, MinLeqAvgAndBestMatchesParts) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 10, 1);
  EXPECT_LE(static_cast<double>(r.min_cut()), r.avg_cut());
  EXPECT_EQ(r.best_cut, r.min_cut());
  ASSERT_FALSE(r.best_parts.empty());
  EXPECT_EQ(compute_cut(h, r.best_parts), r.best_cut);
  EXPECT_EQ(check_solution(p, r.best_parts), "");
}

TEST(Multistart, DeterministicForSeed) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner e1{FmConfig{}};
  FlatFmPartitioner e2{FmConfig{}};
  const MultistartResult a = run_multistart(p, e1, 5, 9);
  const MultistartResult b = run_multistart(p, e2, 5, 9);
  ASSERT_EQ(a.starts.size(), b.starts.size());
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    EXPECT_EQ(a.starts[i].cut, b.starts[i].cut);
  }
  EXPECT_EQ(a.best_parts, b.best_parts);
}

TEST(Multistart, StartsAreIndividuallyReproducible) {
  // Start i uses base.fork(i): re-running just start 2 standalone must
  // reproduce its cut exactly.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult all = run_multistart(p, engine, 5, 77);
  Rng base(77);
  Rng rng = base.fork(2);
  std::vector<PartId> parts;
  FlatFmPartitioner solo{FmConfig{}};
  const Weight cut = solo.run(p, rng, parts);
  EXPECT_EQ(cut, all.starts[2].cut);
}

TEST(Multistart, SamplesMatchStarts) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 6, 3);
  const Sample cuts = r.cut_sample();
  EXPECT_EQ(cuts.size(), 6u);
  EXPECT_DOUBLE_EQ(cuts.mean(), r.avg_cut());
  EXPECT_DOUBLE_EQ(cuts.min(), static_cast<double>(r.min_cut()));
}

TEST(Multistart, DifferentSeedsExploreDifferently) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner e1{FmConfig{}};
  FlatFmPartitioner e2{FmConfig{}};
  const MultistartResult a = run_multistart(p, e1, 8, 1);
  const MultistartResult b = run_multistart(p, e2, 8, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    if (a.starts[i].cut != b.starts[i].cut) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace vlsipart
