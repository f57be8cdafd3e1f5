// Tests for balance constraints and the incremental partition state.
#include <gtest/gtest.h>

#include "src/gen/netlist_gen.h"
#include "src/part/core/balance.h"
#include "src/part/core/initial.h"
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

TEST(Balance, TwoPercentWindow) {
  // Paper: 2% balance = parts between 49% and 51% of total.
  const auto b = BalanceConstraint::from_tolerance(10000, 0.02);
  EXPECT_EQ(b.max_part(), 5100);
  EXPECT_EQ(b.min_part(), 4900);
  EXPECT_EQ(b.window(), 200);
  EXPECT_TRUE(b.feasible(5000));
  EXPECT_TRUE(b.feasible(4900));
  EXPECT_TRUE(b.feasible(5100));
  EXPECT_FALSE(b.feasible(4899));
  EXPECT_FALSE(b.feasible(5101));
}

TEST(Balance, TenPercentWindow) {
  const auto b = BalanceConstraint::from_tolerance(10000, 0.10);
  EXPECT_EQ(b.max_part(), 5500);
  EXPECT_EQ(b.min_part(), 4500);
}

TEST(Balance, ExactBisectionWithOddTotal) {
  const auto b = BalanceConstraint::from_tolerance(101, 0.0);
  // Parity remainder must remain admissible: parts {50, 51}.
  EXPECT_EQ(b.max_part(), 51);
  EXPECT_EQ(b.min_part(), 50);
  EXPECT_TRUE(b.feasible(50));
  EXPECT_TRUE(b.feasible(51));
  EXPECT_FALSE(b.feasible(49));
}

TEST(Balance, MoveLegality) {
  const auto b = BalanceConstraint::from_tolerance(1000, 0.10);
  // Window [450, 550].  w0 = 500: moving weight 60 from part 0 makes
  // w0 = 440 -> illegal; weight 50 -> 450 legal.
  EXPECT_FALSE(b.move_legal(500, 60, 0));
  EXPECT_TRUE(b.move_legal(500, 50, 0));
  EXPECT_TRUE(b.move_legal(500, 50, 1));
  EXPECT_FALSE(b.move_legal(540, 20, 1));
}

TEST(Balance, FromBoundsClamps) {
  const auto b = BalanceConstraint::from_bounds(100, -5, 200);
  EXPECT_EQ(b.min_part(), 0);
  EXPECT_EQ(b.max_part(), 100);
  EXPECT_THROW(BalanceConstraint::from_bounds(100, 60, 40),
               std::logic_error);
  EXPECT_THROW(BalanceConstraint::from_tolerance(0, 0.02), std::logic_error);
}

Hypergraph small_graph() {
  // 6 vertices, nets: {0,1,2}, {2,3}, {3,4,5}, {0,5}.
  HypergraphBuilder b(6);
  b.add_edge({0, 1, 2});
  b.add_edge({2, 3});
  b.add_edge({3, 4, 5});
  b.add_edge({0, 5});
  return b.finalize("six");
}

TEST(PartitionState, AssignComputesCut) {
  const Hypergraph h = small_graph();
  PartitionState s(h);
  s.assign(std::vector<PartId>{0, 0, 0, 1, 1, 1});
  // Cut nets: {2,3} and {0,5}.
  EXPECT_EQ(s.cut(), 2);
  EXPECT_EQ(s.part_weight(0), 3);
  EXPECT_EQ(s.part_weight(1), 3);
  EXPECT_EQ(s.pins_in(0, 0), 3u);
  EXPECT_EQ(s.pins_in(0, 1), 0u);
  EXPECT_EQ(s.pins_in(1, 0), 1u);
  EXPECT_EQ(s.pins_in(1, 1), 1u);
  EXPECT_TRUE(s.edge_cut(1));
  EXPECT_FALSE(s.edge_cut(0));
  s.audit();
}

TEST(PartitionState, MoveUpdatesIncrementally) {
  const Hypergraph h = small_graph();
  PartitionState s(h);
  s.assign(std::vector<PartId>{0, 0, 0, 1, 1, 1});
  s.move(3);  // 3 joins part 0: net {2,3} uncut, net {3,4,5} cut
  EXPECT_EQ(s.part(3), 0);
  EXPECT_EQ(s.cut(), 2);  // {3,4,5} now cut, {0,5} still cut
  EXPECT_EQ(s.part_weight(0), 4);
  s.audit();
  s.move(3);  // move back
  EXPECT_EQ(s.cut(), 2);
  EXPECT_EQ(s.part(3), 1);
  s.audit();
}

TEST(PartitionState, GainMatchesDefinition) {
  const Hypergraph h = small_graph();
  PartitionState s(h);
  s.assign(std::vector<PartId>{0, 0, 0, 1, 1, 1});
  // gain(v) = cut reduction when moving v.
  for (VertexId v = 0; v < 6; ++v) {
    const Weight before = s.cut();
    const Gain g = s.gain(v);
    s.move(v);
    EXPECT_EQ(before - s.cut(), g) << "v=" << static_cast<int>(v);
    s.move(v);  // restore
  }
}

TEST(PartitionState, RandomMoveSequenceStaysConsistent) {
  // Property: after any sequence of moves, incremental bookkeeping
  // matches a from-scratch recomputation.
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionState s(h);
  Rng rng(5);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
  s.assign(parts);
  for (int i = 0; i < 500; ++i) {
    s.move(static_cast<VertexId>(rng.below(h.num_vertices())));
  }
  s.audit();
  EXPECT_EQ(s.cut(), compute_cut(h, s.parts()));
}

TEST(PartitionState, FuzzFusedMoveCallbackAndAudit) {
  // Seeded fuzz over three instance sizes: interleave plain moves,
  // callback moves (the move(v, on_net) overload the FM inner loop
  // feeds on), and full re-assignments.  A callback move must report
  // every incident net exactly once, in incidence order, with its
  // pre-move counts on the source and destination sides, and must leave
  // the same cut, weights and pin counts as move(v) on a twin state.
  // Periodic audits pin the incremental bookkeeping to a from-scratch
  // recomputation.
  for (const char* name : {"tiny", "small", "medium"}) {
    const Hypergraph h = generate_netlist(preset(name));
    const std::size_t n = h.num_vertices();
    PartitionState s(h);
    PartitionState twin(h);
    Rng rng(0xf022eedULL ^ n);

    std::vector<PartId> parts(n);
    for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
    s.assign(parts);
    twin.assign(parts);

    std::vector<EdgeId> seen;
    std::vector<std::uint32_t> seen_from, seen_to;
    std::size_t since_audit = 0;
    for (int step = 0; step < 2000; ++step) {
      const auto op = rng.below(100);
      if (op < 2) {
        // Occasional full re-assignment resets all incremental state.
        for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
        s.assign(parts);
        twin.assign(parts);
        continue;
      }
      const auto v = static_cast<VertexId>(rng.below(n));
      if (op < 50) {
        s.move(v);
      } else {
        const PartId from = s.part(v);
        const auto edges = h.incident_edges(v);
        std::vector<std::uint32_t> expect_from, expect_to;
        for (const EdgeId e : edges) {
          expect_from.push_back(s.pins_in(e, from));
          expect_to.push_back(s.pins_in(e, from ^ 1));
        }
        seen.clear();
        seen_from.clear();
        seen_to.clear();
        s.move(v, [&](EdgeId e, std::uint32_t old_from, std::uint32_t old_to) {
          seen.push_back(e);
          seen_from.push_back(old_from);
          seen_to.push_back(old_to);
        });
        ASSERT_EQ(seen, std::vector<EdgeId>(edges.begin(), edges.end()))
            << name << " v=" << v;
        ASSERT_EQ(seen_from, expect_from) << name << " v=" << v;
        ASSERT_EQ(seen_to, expect_to) << name << " v=" << v;
      }
      twin.move(v);
      ASSERT_EQ(s.cut(), twin.cut()) << name << " step " << step;
      ASSERT_EQ(s.part_weight(0), twin.part_weight(0));
      ASSERT_EQ(s.part_weight(1), twin.part_weight(1));
      ASSERT_EQ(s.part(v), twin.part(v));
      if (++since_audit >= 64) {
        s.audit();
        EXPECT_EQ(s.cut(), compute_cut(h, s.parts()));
        EXPECT_EQ(s.parts(), twin.parts());
        since_audit = 0;
      }
    }
    s.audit();
    EXPECT_EQ(s.cut(), compute_cut(h, s.parts()));
  }
}

TEST(PartitionState, NetGainDeltaMatchesGainRecompute) {
  // net_gain_delta() is the one delta formula of the FM pass and the
  // n-level search: after any move, every other pin's gain must equal
  // its pre-move gain plus the per-net deltas of the nets it shares
  // with the moved vertex.
  const Hypergraph h = generate_netlist(preset("tiny"));
  const std::size_t n = h.num_vertices();
  PartitionState s(h);
  Rng rng(4242);
  std::vector<PartId> parts(n);
  for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
  s.assign(parts);
  std::vector<Gain> gain(n);
  for (int step = 0; step < 300; ++step) {
    for (std::size_t u = 0; u < n; ++u) {
      gain[u] = s.gain(static_cast<VertexId>(u));
    }
    const auto v = static_cast<VertexId>(rng.below(n));
    const PartId from = s.part(v);
    std::vector<Gain> expect = gain;
    s.move(v, [&](EdgeId e, std::uint32_t old_from, std::uint32_t old_to) {
      const NetGainDelta d = net_gain_delta(old_from, old_to, h.edge_weight(e));
      for (const VertexId y : h.pins(e)) {
        if (y != v) expect[y] += parts[y] == from ? d.on_from : d.on_to;
      }
    });
    parts[v] = from ^ 1;
    for (std::size_t u = 0; u < n; ++u) {
      if (u == v) continue;
      ASSERT_EQ(s.gain(static_cast<VertexId>(u)), expect[u])
          << "step " << step << " moved " << v << " pin " << u;
    }
  }
}

TEST(PartitionState, RejectsPartialAssignment) {
  const Hypergraph h = small_graph();
  PartitionState s(h);
  EXPECT_THROW(s.assign(std::vector<PartId>{0, 0, 0}), std::logic_error);
  EXPECT_THROW(s.assign(std::vector<PartId>{0, 0, 0, 1, 1, 7}),
               std::logic_error);
}

TEST(CheckSolution, DetectsViolations) {
  const Hypergraph h = small_graph();
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.4);
  EXPECT_EQ(check_solution(p, std::vector<PartId>{0, 0, 0, 1, 1, 1}), "");
  EXPECT_NE(check_solution(p, std::vector<PartId>{0, 0, 0, 1, 1}), "");
  EXPECT_NE(check_solution(p, std::vector<PartId>{0, 0, 0, 0, 0, 0}), "");
  p.fixed.assign(6, kNoPart);
  p.fixed[0] = 1;
  EXPECT_NE(check_solution(p, std::vector<PartId>{0, 0, 0, 1, 1, 1}), "");
  EXPECT_EQ(check_solution(p, std::vector<PartId>{1, 0, 0, 0, 1, 1}), "");
}

TEST(Initial, RandomInitialFeasibleOnMacroInstance) {
  const Hypergraph h = generate_netlist(preset("small"));
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.02);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto parts = random_initial(p, rng);
    EXPECT_EQ(check_solution(p, parts), "") << "trial " << trial;
  }
}

TEST(Initial, RespectsFixedVertices) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.3);
  p.fixed.assign(h.num_vertices(), kNoPart);
  p.fixed[3] = 1;
  p.fixed[7] = 0;
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto parts = random_initial(p, rng);
    EXPECT_EQ(parts[3], 1);
    EXPECT_EQ(parts[7], 0);
  }
}

TEST(Initial, LptDeterministicAndTight) {
  const Hypergraph h = generate_netlist(preset("small"));
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.02);
  const auto a = lpt_initial(p);
  const auto b = lpt_initial(p);
  EXPECT_EQ(a, b);
  EXPECT_EQ(check_solution(p, a), "");
}

TEST(Initial, DiverseAcrossRngStates) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);
  Rng rng(7);
  const auto a = random_initial(p, rng);
  const auto b = random_initial(p, rng);
  EXPECT_NE(a, b);  // consecutive draws differ with overwhelming probability
}

}  // namespace
}  // namespace vlsipart
