// Tests for BFS region-growing initial solutions, the InitialScheme
// dispatch, coarsening-scheme options, and budgeted multistart read off
// run_multistart records.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/eval/bsf.h"
#include "src/gen/netlist_gen.h"
#include "src/part/core/initial.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/coarsen.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

TEST(BfsInitial, CoversAllVerticesWithBothParts) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  Rng rng(1);
  const auto parts = bfs_initial(p, rng);
  ASSERT_EQ(parts.size(), h.num_vertices());
  Weight w0 = 0;
  Weight w1 = 0;
  for (std::size_t v = 0; v < parts.size(); ++v) {
    ASSERT_LE(parts[v], 1);
    (parts[v] == 0 ? w0 : w1) += h.vertex_weight(static_cast<VertexId>(v));
  }
  EXPECT_GT(w0, 0);
  EXPECT_GT(w1, 0);
  // Region grows to roughly half the weight (within the largest single
  // claim step, which one macro can dominate).
  EXPECT_GE(w0, h.total_vertex_weight() / 2);
  EXPECT_LE(w0, h.total_vertex_weight() / 2 + h.max_vertex_weight() + 1);
}

TEST(BfsInitial, LowerCutThanRandomInitial) {
  // The whole point of region growing: the initial cut starts near the
  // region boundary instead of ~half of all nets.
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  Rng rng(2);
  double bfs_total = 0.0;
  double random_total = 0.0;
  for (int i = 0; i < 10; ++i) {
    bfs_total += static_cast<double>(compute_cut(h, bfs_initial(p, rng)));
    random_total +=
        static_cast<double>(compute_cut(h, random_initial(p, rng)));
  }
  EXPECT_LT(bfs_total, 0.7 * random_total);
}

TEST(BfsInitial, RespectsFixedVertices) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p = make_problem(h, 0.3);
  p.fixed.assign(h.num_vertices(), kNoPart);
  p.fixed[3] = 0;
  p.fixed[8] = 1;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const auto parts = bfs_initial(p, rng);
    EXPECT_EQ(parts[3], 0);
    EXPECT_EQ(parts[8], 1);
  }
}

TEST(InitialScheme, DispatchAndNames) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.2);
  Rng rng(4);
  for (const InitialScheme s :
       {InitialScheme::kRandom, InitialScheme::kBfs, InitialScheme::kMixed}) {
    const auto parts = make_initial(p, s, 0, rng);
    EXPECT_EQ(parts.size(), h.num_vertices());
    EXPECT_NE(std::string(name_of(s)), "?");
  }
}

TEST(InitialScheme, FlatEngineWithBfsStartsStaysValid) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FmConfig bfs;
  bfs.initial_scheme = InitialScheme::kBfs;
  FlatFmPartitioner engine{bfs};
  const MultistartResult r = run_multistart(p, engine, 8, 5);
  for (const auto& s : r.starts) EXPECT_TRUE(s.feasible);
  EXPECT_EQ(check_solution(p, r.best_parts), "");
}

TEST(CoarsenScheme, MatchingHalvesAtMost) {
  const Hypergraph h = generate_netlist(preset("small"));
  CoarsenConfig config;
  Rng rng(6);
  const CoarsenLevel level = coarsen_once(h, config, {}, {}, rng);
  // Pairs only: at most a 2x reduction.
  EXPECT_GE(level.coarse.num_vertices(), h.num_vertices() / 2);
  // And clusters are pairs: max coarse "cardinality" is 2, which we
  // check via the fine-to-coarse map.
  std::vector<int> members(level.coarse.num_vertices(), 0);
  for (const VertexId c : level.fine_to_coarse) ++members[c];
  for (const int m : members) EXPECT_LE(m, 2);
  EXPECT_EQ(level.coarse.total_vertex_weight(), h.total_vertex_weight());
}

TEST(CoarsenScheme, MlWorksWithMatchingCoarsening) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlPartitioner engine(MlConfig{});
  std::vector<PartId> parts;
  Rng rng(8);
  const Weight cut = engine.run(p, rng, parts);
  EXPECT_EQ(check_solution(p, parts), "");
  EXPECT_EQ(cut, compute_cut(h, parts));
}

TEST(MlInitialScheme, BfsAtCoarsestLevelWorks) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlConfig config;
  config.refine.initial_scheme = InitialScheme::kMixed;
  MlPartitioner engine(config);
  std::vector<PartId> parts;
  Rng rng(9);
  engine.run(p, rng, parts);
  EXPECT_EQ(check_solution(p, parts), "");
}

/// Starts a CPU budget tau affords on a multistart record: the shortest
/// prefix whose accumulated CPU reaches tau, so at least one start and at
/// most the whole record.
std::size_t budget_prefix(const std::vector<BsfPoint>& curve, double tau) {
  for (const BsfPoint& point : curve) {
    if (point.cpu_seconds >= tau) return point.starts;
  }
  return curve.size();
}

TEST(BudgetedMultistart, RespectsBudgetAndRunsAtLeastOnce) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 8, 3);
  const std::vector<BsfPoint> curve = observed_bsf_curve(r.starts);
  ASSERT_EQ(curve.size(), 8u);
  // Tiny budget: exactly one start.
  EXPECT_EQ(budget_prefix(curve, 0.0), 1u);
  // A budget first reached by the fourth start affords exactly four, and
  // their best is the feasible minimum of that prefix.
  ASSERT_GT(r.starts[3].cpu_seconds, 0.0);
  const double tau = curve[3].cpu_seconds;
  const std::size_t k = budget_prefix(curve, tau);
  ASSERT_EQ(k, 4u);
  EXPECT_GE(curve[k - 1].cpu_seconds, tau);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k; ++i) {
    if (r.starts[i].feasible) {
      best = std::min(best, static_cast<double>(r.starts[i].cut));
    }
  }
  EXPECT_DOUBLE_EQ(curve[k - 1].expected_cost, best);
  EXPECT_EQ(check_solution(p, r.best_parts), "");
}

TEST(BudgetedMultistart, MaxStartsCap) {
  // A budget beyond all the work affords the whole record: the start
  // count passed to run_multistart is the cap.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  FlatFmPartitioner engine{FmConfig{}};
  const MultistartResult r = run_multistart(p, engine, 5, 3);
  const std::vector<BsfPoint> curve = observed_bsf_curve(r.starts);
  EXPECT_EQ(budget_prefix(curve, 100.0), 5u);
  EXPECT_DOUBLE_EQ(curve.back().expected_cost,
                   static_cast<double>(r.best_cut));
  EXPECT_NEAR(curve.back().cpu_seconds, r.total_cpu_seconds, 1e-9);
}

}  // namespace
}  // namespace vlsipart
