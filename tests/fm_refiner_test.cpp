// Tests for the FM/CLIP refinement engine: correctness invariants, the
// implicit-decision policies, and the CLIP corking effect of Sec. 2.3.
#include <gtest/gtest.h>

#include <tuple>

#include "src/gen/netlist_gen.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/part/core/partitioner.h"
#include "tests/cork_fixture.h"

namespace vlsipart {
namespace {

/// Two 6-vertex clusters joined by a single bridge net; optimal 2-way
/// cut is 1 at any reasonable tolerance.
Hypergraph two_clusters() {
  HypergraphBuilder b(12);
  for (VertexId i = 0; i < 6; ++i) {
    for (VertexId j = i + 1; j < 6; ++j) {
      b.add_edge({i, j});
      b.add_edge({static_cast<VertexId>(6 + i), static_cast<VertexId>(6 + j)});
    }
  }
  b.add_edge({0, 6});  // bridge
  return b.finalize("two-clusters");
}

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

TEST(FmRefiner, FindsOptimalCutOnSeparableInstance) {
  const Hypergraph h = two_clusters();
  const PartitionProblem p = make_problem(h, 0.2);
  int optimal_found = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    auto parts = random_initial(p, rng);
    PartitionState state(h);
    state.assign(parts);
    FmRefiner refiner(p, FmConfig{});
    refiner.refine(state, rng);
    if (state.cut() == 1) ++optimal_found;
    EXPECT_EQ(check_solution(p, state.parts()), "");
  }
  // FM from a random start should find the planted bisection nearly
  // always on this trivially separable instance.
  EXPECT_GE(optimal_found, 8);
}

TEST(FmRefiner, NeverWorsensCut) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto parts = random_initial(p, rng);
    PartitionState state(h);
    state.assign(parts);
    const Weight before = state.cut();
    FmRefiner refiner(p, FmConfig{});
    const FmResult r = refiner.refine(state, rng);
    EXPECT_LE(state.cut(), before);
    EXPECT_EQ(r.final_cut, state.cut());
    EXPECT_EQ(r.initial_cut, before);
    state.audit();
  }
}

TEST(FmRefiner, PreservesFeasibility) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    auto parts = random_initial(p, rng);
    ASSERT_EQ(check_solution(p, parts), "");
    PartitionState state(h);
    state.assign(parts);
    FmRefiner refiner(p, FmConfig{});
    refiner.refine(state, rng);
    EXPECT_EQ(check_solution(p, state.parts()), "");
  }
}

TEST(FmRefiner, FixedVerticesNeverMove) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p = make_problem(h, 0.2);
  p.fixed.assign(h.num_vertices(), kNoPart);
  p.fixed[1] = 0;
  p.fixed[5] = 1;
  p.fixed[9] = 1;
  Rng rng(3);
  auto parts = random_initial(p, rng);
  PartitionState state(h);
  state.assign(parts);
  FmRefiner refiner(p, FmConfig{});
  refiner.refine(state, rng);
  EXPECT_EQ(state.part(1), 0);
  EXPECT_EQ(state.part(5), 1);
  EXPECT_EQ(state.part(9), 1);
}

TEST(FmRefiner, RecoversFromInfeasibleStart) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  // Everything in part 0: grossly infeasible.
  std::vector<PartId> parts(h.num_vertices(), 0);
  parts[0] = 1;  // parts must be {0,1}-assigned; near-degenerate split
  PartitionState state(h);
  state.assign(parts);
  FmRefiner refiner(p, FmConfig{});
  Rng rng(1);
  refiner.refine(state, rng);
  EXPECT_TRUE(p.balance.feasible(state.part_weight(0)))
      << "w0=" << state.part_weight(0) << " window "
      << p.balance.to_string();
}

TEST(Corking, ClipWithoutFixStallsWithZeroMovePass) {
  CorkFixture f;
  PartitionState state(f.h);
  state.assign(f.parts);
  FmConfig cfg;
  cfg.clip = true;
  cfg.exclude_oversized = false;
  FmRefiner refiner(f.p, cfg);
  Rng rng(1);
  const FmResult r = refiner.refine(state, rng);
  EXPECT_GE(r.zero_move_passes, 1u);
  EXPECT_EQ(r.total_moves, 0u);
  EXPECT_EQ(state.cut(), compute_cut(f.h, f.parts));  // nothing improved
}

TEST(Corking, OversizedExclusionUncorks) {
  CorkFixture f;
  PartitionState state(f.h);
  state.assign(f.parts);
  FmConfig cfg;
  cfg.clip = true;
  cfg.exclude_oversized = true;  // "Our CLIP" fix
  FmRefiner refiner(f.p, cfg);
  Rng rng(1);
  const FmResult r = refiner.refine(state, rng);
  EXPECT_EQ(r.zero_move_passes, 0u);
  EXPECT_GT(r.total_moves, 0u);
  EXPECT_GT(r.pass_stats.at(0).oversized_excluded, 0u);
}

TEST(Corking, LookBeyondFirstAlsoUncorks) {
  CorkFixture f;
  PartitionState state(f.h);
  state.assign(f.parts);
  FmConfig cfg;
  cfg.clip = true;
  cfg.look_beyond_first = true;  // the "too time-consuming" alternative
  FmRefiner refiner(f.p, cfg);
  Rng rng(1);
  const FmResult r = refiner.refine(state, rng);
  EXPECT_GT(r.total_moves, 0u);
}

TEST(Corking, ClassicFmIsNotCorked) {
  // Classic FM keys by actual gain, so the big cells sit in their own
  // high-gain buckets; skipping those buckets still reaches the small
  // cells below — no corking.
  CorkFixture f;
  PartitionState state(f.h);
  state.assign(f.parts);
  FmConfig cfg;
  cfg.clip = false;
  FmRefiner refiner(f.p, cfg);
  Rng rng(1);
  const FmResult r = refiner.refine(state, rng);
  EXPECT_GT(r.total_moves, 0u);
  EXPECT_EQ(r.zero_move_passes, 0u);
}

TEST(FmRefiner, ZeroGainPolicyChangesTrajectory) {
  // All-dgain vs Nonzero must (generically) produce different results on
  // an actual-area instance — this is the Table 1 effect.
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  int differs = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto run_with = [&](ZeroGainUpdate policy) {
      Rng rng(seed);
      auto parts = random_initial(p, rng);
      PartitionState state(h);
      state.assign(parts);
      FmConfig cfg;
      cfg.zero_gain_update = policy;
      FmRefiner refiner(p, cfg);
      refiner.refine(state, rng);
      return state.cut();
    };
    if (run_with(ZeroGainUpdate::kAll) != run_with(ZeroGainUpdate::kNonzero)) {
      ++differs;
    }
  }
  EXPECT_GE(differs, 4);
}

TEST(FmRefiner, MaxPassesRespected) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  Rng rng(4);
  auto parts = random_initial(p, rng);
  PartitionState state(h);
  state.assign(parts);
  FmConfig cfg;
  cfg.max_passes = 1;
  FmRefiner refiner(p, cfg);
  const FmResult r = refiner.refine(state, rng);
  EXPECT_EQ(r.passes, 1u);
}

TEST(FmConfig, ToStringNamesEveryPolicy) {
  FmConfig cfg;
  cfg.clip = true;
  cfg.exclude_oversized = true;
  cfg.look_beyond_first = true;
  const std::string s = cfg.to_string();
  EXPECT_NE(s.find("CLIP"), std::string::npos);
  EXPECT_NE(s.find("Away"), std::string::npos);
  EXPECT_NE(s.find("Nonzero"), std::string::npos);
  EXPECT_NE(s.find("LIFO"), std::string::npos);
  EXPECT_NE(s.find("noOversized"), std::string::npos);
  EXPECT_NE(s.find("lookBeyond"), std::string::npos);
}

// ---------------------------------------------------------------------
// Property sweep over the full implicit-decision cross-product: every
// combination must satisfy the engine invariants (feasible result,
// never-worse cut, internal consistency, determinism).
// ---------------------------------------------------------------------

using PolicyTuple =
    std::tuple<bool, TieBreak, ZeroGainUpdate, InsertOrder, BestChoice>;

class FmPolicySweep : public ::testing::TestWithParam<PolicyTuple> {};

TEST_P(FmPolicySweep, InvariantsHoldForEveryPolicyCombination) {
  const auto [clip, tie, zero, insert, best] = GetParam();
  FmConfig cfg;
  cfg.clip = clip;
  cfg.tie_break = tie;
  cfg.zero_gain_update = zero;
  cfg.insert_order = insert;
  cfg.best_choice = best;
  cfg.exclude_oversized = clip;  // keep CLIP variants uncorked

  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);

  Rng init_rng(11);
  const auto parts = random_initial(p, init_rng);
  const Weight before = compute_cut(h, parts);

  auto run_once = [&]() {
    PartitionState state(h);
    state.assign(parts);
    Rng rng(77);
    FmRefiner refiner(p, cfg);
    refiner.refine(state, rng);
    state.audit();
    return state;
  };

  PartitionState state = run_once();
  EXPECT_LE(state.cut(), before) << cfg.to_string();
  EXPECT_EQ(check_solution(p, state.parts()), "") << cfg.to_string();
  // Determinism: identical seed and config reproduce the exact result.
  PartitionState again = run_once();
  EXPECT_EQ(state.parts(), again.parts()) << cfg.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FmPolicySweep,
    ::testing::Combine(
        ::testing::Values(false, true),
        ::testing::Values(TieBreak::kAway, TieBreak::kPart0,
                          TieBreak::kToward),
        ::testing::Values(ZeroGainUpdate::kAll, ZeroGainUpdate::kNonzero),
        ::testing::Values(InsertOrder::kLifo, InsertOrder::kFifo,
                          InsertOrder::kRandom),
        ::testing::Values(BestChoice::kFirst, BestChoice::kLast,
                          BestChoice::kBalance)));

}  // namespace
}  // namespace vlsipart
