// Tests for the k-way state and direct k-way FM refinement.
#include <gtest/gtest.h>

#include "src/gen/netlist_gen.h"
#include "src/part/kway/kway_refiner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

TEST(KwayState, AssignAndCut) {
  HypergraphBuilder b(6);
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({4, 5}, 3);
  b.add_edge({0, 5});
  const Hypergraph h = b.finalize();
  KwayState s(h, 3);
  s.assign(std::vector<PartId>{0, 0, 1, 1, 2, 2});
  EXPECT_EQ(s.cut(), 2);  // {1,2,3} and {0,5}
  EXPECT_EQ(s.part_weight(0), 2);
  EXPECT_EQ(s.pins_in(1, 0), 1u);
  EXPECT_EQ(s.pins_in(1, 1), 2u);
  EXPECT_EQ(s.spanned_parts(1), 2u);
  s.audit();
}

TEST(KwayState, MoveUpdatesIncrementally) {
  HypergraphBuilder b(6);
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({4, 5}, 3);
  b.add_edge({0, 5});
  const Hypergraph h = b.finalize();
  KwayState s(h, 3);
  s.assign(std::vector<PartId>{0, 0, 1, 1, 2, 2});
  s.move(1, 1);  // net {0,1} becomes cut; net {1,2,3} becomes uncut
  EXPECT_EQ(s.part(1), 1);
  EXPECT_EQ(s.cut(), 2);
  s.audit();
  s.move(1, 0);
  EXPECT_EQ(s.cut(), 2);
  s.audit();
}

TEST(KwayState, GainMatchesMove) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const std::size_t k = 4;
  KwayState s(h, k);
  Rng rng(3);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(k));
  s.assign(parts);
  for (int trial = 0; trial < 200; ++trial) {
    const auto v = static_cast<VertexId>(rng.below(h.num_vertices()));
    auto to = static_cast<PartId>(rng.below(k));
    if (to == s.part(v)) to = static_cast<PartId>((to + 1) % k);
    const Weight before = s.cut();
    const Gain g = s.gain(v, to);
    s.move(v, to);
    EXPECT_EQ(before - s.cut(), g);
  }
  s.audit();
}

TEST(KwayState, RandomMoveSequenceStaysConsistent) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayState s(h, 5);
  Rng rng(7);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(5));
  s.assign(parts);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<VertexId>(rng.below(h.num_vertices()));
    auto to = static_cast<PartId>(rng.below(5));
    if (to == s.part(v)) continue;
    s.move(v, to);
  }
  s.audit();
  EXPECT_EQ(s.cut(), kway_cut(h, s.parts()));
}

TEST(KwayProblemUniform, BandsAreSane) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const KwayProblem p = KwayProblem::uniform(h, 4, 0.2);
  const double cap = static_cast<double>(h.total_vertex_weight()) / 4.0;
  EXPECT_LE(static_cast<double>(p.min_part), cap);
  EXPECT_GE(static_cast<double>(p.max_part), cap);
  EXPECT_LT(p.min_part, p.max_part);
}

TEST(KwayRefiner, NeverWorsensAndStaysFeasible) {
  const Hypergraph h = generate_netlist(preset("small"));
  const std::size_t k = 4;
  // Start from a feasible RB solution (without polish).
  KwayConfig rb;
  rb.k = k;
  rb.tolerance = 0.25;
  rb.refine_passes = 0;
  const KwayResult initial = recursive_bisection(h, rb);

  KwayProblem problem = KwayProblem::uniform(h, k, 0.25);
  KwayState state(h, k);
  state.assign(initial.parts);
  const Weight before = state.cut();
  KwayFmRefiner refiner(problem, /*max_passes=*/0);
  const KwayFmResult r = refiner.refine(state);
  EXPECT_LE(state.cut(), before);
  EXPECT_EQ(r.final_cut, state.cut());
  EXPECT_EQ(r.initial_cut, before);
  state.audit();
  EXPECT_EQ(check_kway_solution(problem, state.parts()), "");
}

TEST(KwayRefiner, ImprovesRecursiveBisectionOnAverage) {
  const Hypergraph h = generate_netlist(preset("small"));
  Weight with_polish = 0;
  Weight without_polish = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    KwayConfig off;
    off.k = 4;
    off.tolerance = 0.25;
    off.seed = seed;
    off.refine_passes = 0;
    KwayConfig on = off;
    on.refine_passes = 3;
    without_polish += recursive_bisection(h, off).cut;
    with_polish += recursive_bisection(h, on).cut;
  }
  EXPECT_LE(with_polish, without_polish);
}

TEST(KwayRefiner, RespectsFixedVertices) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayProblem problem = KwayProblem::uniform(h, 3, 0.6);
  problem.fixed.assign(h.num_vertices(), kNoPart);
  problem.fixed[1] = 2;
  problem.fixed[4] = 0;
  std::vector<PartId> parts(h.num_vertices());
  for (std::size_t v = 0; v < parts.size(); ++v) {
    parts[v] = static_cast<PartId>(v % 3);
  }
  parts[1] = 2;
  parts[4] = 0;
  KwayState state(h, 3);
  state.assign(parts);
  KwayFmRefiner(problem, /*max_passes=*/0).refine(state);
  EXPECT_EQ(state.part(1), 2);
  EXPECT_EQ(state.part(4), 0);
}

TEST(KwayRefiner, DeterministicForSeed) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayProblem problem = KwayProblem::uniform(h, 4, 0.5);
  auto run = [&]() {
    std::vector<PartId> parts(h.num_vertices());
    Rng init(2);
    for (auto& p : parts) p = static_cast<PartId>(init.below(4));
    KwayState state(h, 4);
    state.assign(parts);
    KwayFmRefiner(problem, /*max_passes=*/0).refine(state);
    return state.parts();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vlsipart
