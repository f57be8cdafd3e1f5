// Tests for multilevel coarsening, the ML partitioner and V-cycling.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/gen/netlist_gen.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/coarsen.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

TEST(Coarsen, PreservesTotalWeight) {
  const Hypergraph h = generate_netlist(preset("small"));
  Rng rng(1);
  const CoarsenLevel level = coarsen_once(h, CoarsenConfig{}, {}, {}, rng);
  EXPECT_EQ(level.coarse.total_vertex_weight(), h.total_vertex_weight());
  level.coarse.validate();
}

TEST(Coarsen, ReducesVertexCount) {
  const Hypergraph h = generate_netlist(preset("small"));
  Rng rng(1);
  const CoarsenLevel level = coarsen_once(h, CoarsenConfig{}, {}, {}, rng);
  EXPECT_LT(level.coarse.num_vertices(), h.num_vertices());
  // Heavy-edge clustering on a well-structured netlist should shrink the
  // instance substantially in one level.
  EXPECT_LT(static_cast<double>(level.coarse.num_vertices()),
            0.8 * static_cast<double>(h.num_vertices()));
}

TEST(Coarsen, RespectsMaxClusterWeight) {
  const Hypergraph h = generate_netlist(preset("small"));
  CoarsenConfig config;
  config.max_cluster_weight = 12;
  Rng rng(1);
  const CoarsenLevel level = coarsen_once(h, config, {}, {}, rng);
  const Weight cap = std::max<Weight>(12, h.max_vertex_weight());
  for (std::size_t v = 0; v < level.coarse.num_vertices(); ++v) {
    EXPECT_LE(level.coarse.vertex_weight(static_cast<VertexId>(v)), cap);
  }
}

TEST(Coarsen, FixedVerticesStaySingletons) {
  const Hypergraph h = generate_netlist(preset("small"));
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  fixed[3] = 0;
  fixed[10] = 1;
  fixed[20] = 1;
  Rng rng(2);
  const CoarsenLevel level = coarsen_once(h, CoarsenConfig{}, fixed, {}, rng);
  // Each fixed vertex must map to a coarse vertex of identical weight
  // (i.e., a singleton cluster).
  for (const VertexId v : {VertexId{3}, VertexId{10}, VertexId{20}}) {
    const VertexId c = level.fine_to_coarse[v];
    EXPECT_EQ(level.coarse.vertex_weight(c), h.vertex_weight(v));
    // No other vertex shares the cluster.
    for (std::size_t u = 0; u < h.num_vertices(); ++u) {
      if (u != v) {
        EXPECT_NE(level.fine_to_coarse[u], c);
      }
    }
  }
}

TEST(Coarsen, RespectPartsKeepsClustersHomogeneous) {
  const Hypergraph h = generate_netlist(preset("small"));
  Rng init(3);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(init.below(2));
  Rng rng(4);
  const CoarsenLevel level = coarsen_once(h, CoarsenConfig{}, {}, parts, rng);
  std::vector<PartId> cluster_part(level.coarse.num_vertices(), kNoPart);
  for (std::size_t v = 0; v < parts.size(); ++v) {
    PartId& slot = cluster_part[level.fine_to_coarse[v]];
    if (slot == kNoPart) {
      slot = parts[v];
    } else {
      EXPECT_EQ(slot, parts[v]) << "cluster mixes parts at fine vertex " << v;
    }
  }
}

TEST(Coarsen, CutPreservedUnderProjection) {
  // For any coarse assignment, the coarse cut equals the fine cut of its
  // projection (parallel-net weight merging makes this exact).
  const Hypergraph h = generate_netlist(preset("tiny"));
  Rng rng(5);
  const CoarsenLevel level = coarsen_once(h, CoarsenConfig{}, {}, {}, rng);
  Rng assign_rng(6);
  std::vector<PartId> coarse_parts(level.coarse.num_vertices());
  for (auto& p : coarse_parts) p = static_cast<PartId>(assign_rng.below(2));
  const Weight coarse_cut = compute_cut(level.coarse, coarse_parts);
  const auto fine_parts = project_partition(level.fine_to_coarse, coarse_parts);
  EXPECT_EQ(coarse_cut, compute_cut(h, fine_parts));
}

TEST(Coarsen, HierarchyReachesTarget) {
  const Hypergraph h = generate_netlist(preset("medium"));
  CoarsenConfig config;
  config.coarsen_to = 100;
  Rng rng(7);
  const auto levels = build_hierarchy(h, config, {}, {}, rng);
  ASSERT_FALSE(levels.empty());
  // Either we reached the target or coarsening stalled above it.
  EXPECT_LE(levels.back().coarse.num_vertices(),
            static_cast<std::size_t>(
                static_cast<double>(h.num_vertices()) * 0.2));
  // Monotone shrink across levels.
  std::size_t prev = h.num_vertices();
  for (const auto& level : levels) {
    EXPECT_LT(level.coarse.num_vertices(), prev);
    prev = level.coarse.num_vertices();
  }
}

// One cap rule for the serial and parallel coarseners and n-level: the
// configured weight, else total / max(coarsen_to, 32), never below the
// heaviest vertex.
TEST(Coarsen, ClusterWeightCapRule) {
  const Hypergraph h = generate_netlist(preset("small"));
  const Weight total = h.total_vertex_weight();
  EXPECT_EQ(cluster_weight_cap(h, 120, 77), 77);
  EXPECT_EQ(cluster_weight_cap(h, 120, 0),
            std::max<Weight>(total / 120, h.max_vertex_weight()));
  EXPECT_EQ(cluster_weight_cap(h, 8, 0),
            std::max<Weight>(total / 32, h.max_vertex_weight()));
  EXPECT_EQ(cluster_weight_cap(h, total, 0), h.max_vertex_weight());
}

// The shared hierarchy loop keeps every level that shrinks enough and
// drops the first one that stalls, whatever builds the levels.
TEST(Coarsen, BuildLevelsDropsTheStalledLevel) {
  const Hypergraph h = generate_netlist(preset("medium"));
  CoarsenConfig config;
  config.coarsen_to = 10;
  Rng rng(7);
  std::size_t built = 0;
  const auto levels = build_levels(
      h, config, {}, {},
      [&](const Hypergraph& g, const std::vector<PartId>& fixed,
          const std::vector<PartId>& parts) {
        ++built;
        CoarsenConfig one = config;
        // The third level may merge nothing: a stall.
        if (built == 3) one.max_cluster_weight = 1;
        return coarsen_once(g, one, fixed, parts, rng);
      });
  EXPECT_EQ(built, 3u);
  EXPECT_EQ(levels.size(), 2u);
}

// Each kept level carries its own fixed sides: a fixed vertex's cluster
// keeps the side at every level, and a hierarchy without fixed vertices
// carries none.
TEST(Coarsen, HierarchyCarriesFixedPerLevel) {
  const Hypergraph h = generate_netlist(preset("small"));
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  for (std::size_t v = 0; v < fixed.size(); v += 7) {
    fixed[v] = static_cast<PartId>(v % 2);
  }
  const auto num_fixed = [](const std::vector<PartId>& f) {
    return std::count_if(f.begin(), f.end(),
                         [](PartId p) { return p != kNoPart; });
  };
  Rng rng(8);
  const auto levels = build_hierarchy(h, CoarsenConfig{}, fixed, {}, rng);
  ASSERT_FALSE(levels.empty());
  const std::vector<PartId>* fine = &fixed;
  for (const CoarsenLevel& level : levels) {
    ASSERT_EQ(level.fixed.size(), level.coarse.num_vertices());
    for (std::size_t v = 0; v < fine->size(); ++v) {
      if ((*fine)[v] != kNoPart) {
        EXPECT_EQ(level.fixed[level.fine_to_coarse[v]], (*fine)[v]);
      }
    }
    EXPECT_EQ(num_fixed(level.fixed), num_fixed(fixed));  // singletons
    fine = &level.fixed;
  }
  Rng free_rng(8);
  for (const CoarsenLevel& level :
       build_hierarchy(h, CoarsenConfig{}, {}, {}, free_rng)) {
    EXPECT_TRUE(level.fixed.empty());
  }
}

TEST(Coarsen, ProjectFixedDetectsConflicts) {
  std::vector<PartId> fine_fixed = {0, kNoPart, 1};
  std::vector<VertexId> map = {0, 0, 1};
  const auto coarse = project_fixed(fine_fixed, map, 2);
  EXPECT_EQ(coarse[0], 0);
  EXPECT_EQ(coarse[1], 1);
  // Merging two differently fixed vertices must throw.
  std::vector<VertexId> bad_map = {0, 0, 0};
  EXPECT_THROW(project_fixed(fine_fixed, bad_map, 1), std::logic_error);
}

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

TEST(MlPartitioner, ProducesFeasibleSolutions) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  MlPartitioner ml(MlConfig{});
  std::vector<PartId> parts;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    const Weight cut = ml.run(p, rng, parts);
    EXPECT_EQ(check_solution(p, parts), "") << "seed " << seed;
    EXPECT_EQ(cut, compute_cut(h, parts));
  }
}

TEST(MlPartitioner, BeatsFlatOnStructuredInstance) {
  const Hypergraph h = generate_netlist(preset("medium"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlPartitioner ml(MlConfig{});
  FlatFmPartitioner flat{FmConfig{}};
  double ml_total = 0.0;
  double flat_total = 0.0;
  std::vector<PartId> parts;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng r1(seed);
    ml_total += static_cast<double>(ml.run(p, r1, parts));
    Rng r2(seed);
    flat_total += static_cast<double>(flat.run(p, r2, parts));
  }
  // The paper's strength ordering: ML engines clearly beat flat ones on
  // ISPD98-like instances.
  EXPECT_LT(ml_total, flat_total);
}

TEST(MlPartitioner, DeterministicForSeed) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlPartitioner ml(MlConfig{});
  std::vector<PartId> a;
  std::vector<PartId> b;
  Rng r1(9);
  const Weight ca = ml.run(p, r1, a);
  Rng r2(9);
  const Weight cb = ml.run(p, r2, b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(a, b);
}

TEST(MlPartitioner, HandlesFixedVertices) {
  const Hypergraph h = generate_netlist(preset("small"));
  PartitionProblem p = make_problem(h, 0.1);
  p.fixed.assign(h.num_vertices(), kNoPart);
  for (VertexId v = 0; v < 10; ++v) p.fixed[v] = static_cast<PartId>(v % 2);
  MlPartitioner ml(MlConfig{});
  std::vector<PartId> parts;
  Rng rng(11);
  ml.run(p, rng, parts);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(parts[v], static_cast<PartId>(v % 2));
  }
  EXPECT_EQ(check_solution(p, parts), "");
}

TEST(MlPartitioner, VcycleNeverWorsens) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlPartitioner ml(MlConfig{});
  std::vector<PartId> parts;
  Rng rng(13);
  const Weight initial = ml.run(p, rng, parts);
  Weight cut = initial;
  for (int c = 0; c < 3; ++c) {
    const Weight next = ml.vcycle(p, rng, parts);
    EXPECT_LE(next, cut);
    EXPECT_EQ(next, compute_cut(h, parts));
    EXPECT_EQ(check_solution(p, parts), "");
    cut = next;
  }
}

TEST(MlPartitioner, TinyGraphBelowCoarsenTarget) {
  // Graph already smaller than coarsen_to: the ML engine must still
  // work (degenerates to multi-try FM).
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.1);
  MlConfig config;
  config.coarsen.coarsen_to = 1000;
  MlPartitioner ml(config);
  std::vector<PartId> parts;
  Rng rng(17);
  const Weight cut = ml.run(p, rng, parts);
  EXPECT_EQ(check_solution(p, parts), "");
  EXPECT_EQ(cut, compute_cut(h, parts));
}

TEST(HmetisLike, VcyclesOnBestImproveOrKeep) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  MlPartitioner ml(MlConfig{});
  const MultistartResult plain = run_multistart(p, ml, 4, 21);
  MlPartitioner ml2(MlConfig{});
  const MultistartResult cycled = run_hmetis_like(p, ml2, 4, 2, 21);
  EXPECT_LE(cycled.best_cut, plain.best_cut);
  EXPECT_EQ(check_solution(p, cycled.best_parts), "");
}

}  // namespace
}  // namespace vlsipart
