// Determinism and correctness harness for the synchronous-round
// parallel engines (parallel_refine.h, parallel_coarsen.h).
//
// The hard acceptance bar: the parallel refiner and coarsener must be
// bit-identical to themselves at 1/2/4/8 threads (the shard.h merge
// lemma made executable), on real instances across a config matrix —
// full kept-move traces, round stats and final assignments digested and
// compared, plus the complete ML pipeline with both engines enabled.
// Alongside the invariance suites, a seeded fuzz harness drives the
// prefix-scan commit with adversarial proposal lists (duplicates, fixed
// vertices, stale gains, tight balance windows) and audits the state
// after every commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/core/initial.h"
#include "src/part/core/parallel_refine.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/part/ml/parallel_coarsen.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace vlsipart {
namespace {

// FNV-1a style combiner, same idiom as fm_golden_trace_test: the digest
// pins the full ordered sequence of observable events.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  void add_signed(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
};

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

const char* const kInstances[] = {"tiny", "small", "medium"};
const std::size_t kThreadCounts[] = {1, 2, 4, 8};

struct ConfigSpec {
  std::string label;
  FmConfig cfg;
  double tolerance;
};

/// The config surface the round engine actually reads: balance window,
/// corking exclusion, round cap.  (Bucket policies like insert_order
/// are serial-engine knobs; the round engine has no buckets.)
std::vector<ConfigSpec> parallel_config_matrix() {
  std::vector<ConfigSpec> out;
  for (const double tol : {0.02, 0.10}) {
    for (const bool cork : {false, true}) {
      for (const int max_passes : {-1, 3}) {
        FmConfig cfg;
        cfg.exclude_oversized = cork;
        cfg.max_passes = max_passes;
        cfg.record_trace = true;
        std::string label = "tol" + std::to_string(tol).substr(0, 4) +
                            (cork ? "-cork1" : "-cork0") + "-mp" +
                            std::to_string(max_passes);
        out.push_back({std::move(label), cfg, tol});
      }
    }
  }
  return out;
}

/// Digest of one parallel refine at a given thread count: every round's
/// stats and kept-move trace, then the final cut and full assignment.
std::uint64_t parallel_refine_digest(const Hypergraph& h,
                                     const ConfigSpec& spec,
                                     std::size_t threads, Weight* final_cut) {
  const PartitionProblem p = make_problem(h, spec.tolerance);
  Rng init_rng(12345);
  const auto parts = random_initial(p, init_rng);
  PartitionState state(h);
  state.assign(parts);

  ThreadPool pool(threads);
  ParallelFmRefiner refiner(p, spec.cfg, &pool);
  Rng rng(67890);
  const ParallelFmResult r = refiner.refine(state, rng);

  Digest d;
  d.add(r.rounds);
  d.add(r.total_moves);
  d.add_signed(r.initial_cut);
  d.add_signed(r.final_cut);
  for (const ParallelRoundStats& s : r.round_stats) {
    d.add(s.proposals);
    d.add(s.applied);
    d.add(s.kept);
    d.add(s.rejected_balance);
    d.add(s.gains_recomputed);
    d.add_signed(s.cut_before);
    d.add_signed(s.cut_after);
  }
  for (const auto& trace : r.round_traces) {
    d.add(trace.size());
    for (const VertexId v : trace) d.add(v);
  }
  for (const PartId part : state.parts()) d.add(part);
  *final_cut = state.cut();
  return d.h;
}

TEST(ParallelRefine, BitIdenticalAcrossThreadCounts) {
  const auto configs = parallel_config_matrix();
  for (const char* const instance : kInstances) {
    const Hypergraph h = generate_netlist(preset(instance));
    for (const ConfigSpec& spec : configs) {
      Weight ref_cut = 0;
      const std::uint64_t ref =
          parallel_refine_digest(h, spec, /*threads=*/1, &ref_cut);
      for (const std::size_t t : kThreadCounts) {
        if (t == 1) continue;
        Weight cut = 0;
        const std::uint64_t digest = parallel_refine_digest(h, spec, t, &cut);
        EXPECT_EQ(digest, ref) << instance << " " << spec.label << " at "
                               << t << " threads diverged from 1 thread";
        EXPECT_EQ(cut, ref_cut) << instance << " " << spec.label;
      }
    }
  }
}

TEST(ParallelRefine, NullPoolMatchesSingleThreadPool) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.02);
  FmConfig cfg;
  cfg.record_trace = true;

  Rng init_rng(7);
  const auto parts = random_initial(p, init_rng);

  auto run = [&](ThreadPool* pool) {
    PartitionState state(h);
    state.assign(parts);
    ParallelFmRefiner refiner(p, cfg, pool);
    Rng rng(99);
    refiner.refine(state, rng);
    return state.parts();
  };

  ThreadPool pool(1);
  EXPECT_EQ(run(nullptr), run(&pool));
}

TEST(ParallelRefine, ImprovesCutAndKeepsFeasibility) {
  for (const char* const instance : kInstances) {
    const Hypergraph h = generate_netlist(preset(instance));
    const PartitionProblem p = make_problem(h, 0.02);
    Rng init_rng(31337);
    const auto parts = random_initial(p, init_rng);
    PartitionState state(h);
    state.assign(parts);
    const Weight initial = state.cut();

    ThreadPool pool(4);
    ParallelFmRefiner refiner(p, FmConfig{}, &pool);
    Rng rng(4242);
    const ParallelFmResult r = refiner.refine(state, rng);

    EXPECT_LE(state.cut(), initial) << instance;
    EXPECT_EQ(r.final_cut, state.cut()) << instance;
    EXPECT_GT(r.total_moves, 0u) << instance;
    EXPECT_TRUE(check_solution(p, state.parts(), state.cut()).empty())
        << instance;
    state.audit();
  }
}

TEST(ParallelRefine, RecoversFromInfeasibleStart) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.10);
  // Everything on side 0: maximally infeasible, zero cut.
  std::vector<PartId> parts(h.num_vertices(), 0);
  PartitionState state(h);
  state.assign(parts);
  ASSERT_GT(state.part_weight(0), p.balance.max_part());

  ThreadPool pool(2);
  ParallelFmRefiner refiner(p, FmConfig{}, &pool);
  Rng rng(5);
  refiner.refine(state, rng);

  EXPECT_TRUE(p.balance.feasible(state.part_weight(0)))
      << "w0=" << state.part_weight(0) << " window=["
      << p.balance.min_part() << "," << p.balance.max_part() << "]";
  state.audit();
}

TEST(ParallelRefine, RespectsFixedVertices) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p = make_problem(h, 0.10);
  p.fixed.assign(h.num_vertices(), kNoPart);
  Rng fix_rng(77);
  for (std::size_t v = 0; v < h.num_vertices(); v += 7) {
    p.fixed[v] = static_cast<PartId>(fix_rng.range(0, 1));
  }
  Rng init_rng(88);
  const auto parts = random_initial(p, init_rng);
  PartitionState state(h);
  state.assign(parts);

  ThreadPool pool(4);
  ParallelFmRefiner refiner(p, FmConfig{}, &pool);
  Rng rng(6);
  refiner.refine(state, rng);

  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    if (p.fixed[v] != kNoPart) {
      EXPECT_EQ(state.part(static_cast<VertexId>(v)), p.fixed[v])
          << "fixed vertex " << v << " moved";
    }
  }
}

/// The full ML pipeline with both parallel engines enabled must be
/// bit-identical at 2/4/8 threads (1 selects the serial engines, which
/// are a different — golden-pinned — heuristic).
TEST(ParallelRefine, MlPipelineBitIdenticalAcrossThreadCounts) {
  for (const char* const instance : {"small", "medium"}) {
    const Hypergraph h = generate_netlist(preset(instance));
    const PartitionProblem p = make_problem(h, 0.02);

    auto run = [&](std::size_t threads) {
      MlConfig cfg;
      cfg.refine.refine_threads = threads;
      cfg.coarsen.coarsen_threads = threads;
      MlPartitioner ml(cfg);
      Rng rng(424242);
      std::vector<PartId> parts;
      const Weight cut = ml.run(p, rng, parts);
      Digest d;
      d.add_signed(cut);
      for (const PartId part : parts) d.add(part);
      return d.h;
    };

    const std::uint64_t ref = run(2);
    EXPECT_EQ(run(4), ref) << instance << ": ML pipeline at 4 threads";
    EXPECT_EQ(run(8), ref) << instance << ": ML pipeline at 8 threads";
  }
}

// ---------------------------------------------------------------------
// Parallel coarsening invariance.

std::uint64_t hierarchy_digest(const Hypergraph& h,
                               const CoarsenConfig& config,
                               std::size_t threads) {
  ThreadPool pool(threads);
  ContractionMemory memory;
  const std::vector<CoarsenLevel> levels =
      parallel_build_hierarchy(h, config, {}, {}, &pool, &memory);
  Digest d;
  d.add(levels.size());
  for (const CoarsenLevel& level : levels) {
    d.add(level.coarse.num_vertices());
    d.add(level.coarse.num_edges());
    d.add(level.coarse.num_pins());
    for (const VertexId c : level.fine_to_coarse) d.add(c);
    for (std::size_t v = 0; v < level.coarse.num_vertices(); ++v) {
      d.add_signed(level.coarse.vertex_weight(static_cast<VertexId>(v)));
    }
    for (std::size_t e = 0; e < level.coarse.num_edges(); ++e) {
      d.add_signed(level.coarse.edge_weight(static_cast<EdgeId>(e)));
    }
  }
  return d.h;
}

TEST(ParallelCoarsen, BitIdenticalAcrossThreadCounts) {
  for (const char* const instance : kInstances) {
    const Hypergraph h = generate_netlist(preset(instance));
    const CoarsenConfig config;
    const std::uint64_t ref = hierarchy_digest(h, config, 1);
    for (const std::size_t t : kThreadCounts) {
      if (t == 1) continue;
      EXPECT_EQ(hierarchy_digest(h, config, t), ref)
          << instance << " at " << t << " threads";
    }
  }
}

TEST(ParallelCoarsen, FixedVerticesStaySingletons) {
  const Hypergraph h = generate_netlist(preset("small"));
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  for (std::size_t v = 0; v < h.num_vertices(); v += 11) fixed[v] = 0;

  ThreadPool pool(4);
  CoarsenConfig config;
  const CoarsenLevel level =
      parallel_coarsen_once(h, config, fixed, {}, &pool);

  std::vector<std::size_t> cluster_size(level.coarse.num_vertices(), 0);
  for (const VertexId c : level.fine_to_coarse) ++cluster_size[c];
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    if (fixed[v] != kNoPart) {
      EXPECT_EQ(cluster_size[level.fine_to_coarse[v]], 1u)
          << "fixed vertex " << v << " was clustered";
    }
  }
}

TEST(ParallelCoarsen, RespectsExplicitWeightCap) {
  const Hypergraph h = generate_netlist(preset("small"));
  const Weight cap = std::max<Weight>(h.max_vertex_weight(), 40);
  CoarsenConfig config;
  config.max_cluster_weight = cap;
  ThreadPool pool(2);
  const CoarsenLevel level = parallel_coarsen_once(h, config, {}, {}, &pool);
  for (std::size_t c = 0; c < level.coarse.num_vertices(); ++c) {
    const Weight w = level.coarse.vertex_weight(static_cast<VertexId>(c));
    // Clusters above the cap may only be single vertices that already
    // exceeded it on their own.
    if (w > cap) {
      std::size_t members = 0;
      for (const VertexId fc : level.fine_to_coarse) {
        if (fc == static_cast<VertexId>(c)) ++members;
      }
      EXPECT_EQ(members, 1u) << "multi-vertex cluster " << c
                             << " exceeds cap: " << w << " > " << cap;
    }
  }
}

TEST(ParallelCoarsen, ReducesInstanceSize) {
  const Hypergraph h = generate_netlist(preset("medium"));
  ThreadPool pool(4);
  CoarsenConfig config;
  ContractionMemory memory;
  const std::vector<CoarsenLevel> levels =
      parallel_build_hierarchy(h, config, {}, {}, &pool, &memory);
  ASSERT_FALSE(levels.empty());
  EXPECT_LE(levels.back().coarse.num_vertices(), h.num_vertices() / 2);
  for (const CoarsenLevel& level : levels) level.coarse.validate();
}

// ---------------------------------------------------------------------
// Seeded fuzz for the prefix-scan commit: adversarial proposal lists
// against audited state.

TEST(ParallelCommitFuzz, AdversarialProposalsKeepStateSound) {
  Rng rng(0xfeedULL);
  for (int iter = 0; iter < 60; ++iter) {
    // Random small hypergraph with wide weight spread.
    const std::size_t n = 8 + static_cast<std::size_t>(rng.range(0, 24));
    HypergraphBuilder b(n);
    for (std::size_t v = 0; v < n; ++v) {
      b.set_vertex_weight(static_cast<VertexId>(v),
                          1 + rng.range(0, iter % 3 == 0 ? 19 : 3));
    }
    const std::size_t edges = n + static_cast<std::size_t>(rng.range(0, 16));
    for (std::size_t e = 0; e < edges; ++e) {
      std::vector<VertexId> pins;
      const std::size_t size = 2 + static_cast<std::size_t>(rng.range(0, 4));
      for (std::size_t i = 0; i < size; ++i) {
        pins.push_back(static_cast<VertexId>(
            rng.range(0, static_cast<std::int64_t>(n) - 1)));
      }
      b.add_edge(pins, 1 + rng.range(0, 3));
    }
    const Hypergraph h = b.finalize("fuzz");
    if (h.num_edges() == 0) continue;

    // Tight or loose balance window; occasional fixed vertices.
    PartitionProblem p = make_problem(h, iter % 2 == 0 ? 0.05 : 0.3);
    if (iter % 4 == 0) {
      p.fixed.assign(n, kNoPart);
      p.fixed[0] = 0;
      p.fixed[n / 2] = 1;
    }

    std::vector<PartId> parts(n);
    for (std::size_t v = 0; v < n; ++v) {
      parts[v] = p.is_fixed(static_cast<VertexId>(v))
                     ? p.fixed[v]
                     : static_cast<PartId>(rng.range(0, 1));
    }
    PartitionState state(h);
    state.assign(parts);

    auto imbalance_of = [&p](Weight w0) -> Weight {
      if (w0 < p.balance.min_part()) return p.balance.min_part() - w0;
      if (w0 > p.balance.max_part()) return w0 - p.balance.max_part();
      return 0;
    };
    const Weight imb_before = imbalance_of(state.part_weight(0));
    const Weight cut_before = state.cut();

    // Adversarial proposals: duplicates, fixed vertices, garbage gains
    // (deliberately unrelated to the true gains).
    std::vector<MoveProposal> proposals;
    const std::size_t count = static_cast<std::size_t>(rng.range(0, 40));
    for (std::size_t i = 0; i < count; ++i) {
      MoveProposal mp;
      mp.v = static_cast<VertexId>(
          rng.range(0, static_cast<std::int64_t>(n) - 1));
      mp.gain = rng.range(-5, 5);
      proposals.push_back(mp);
    }
    std::stable_sort(proposals.begin(), proposals.end(),
                     [](const MoveProposal& a, const MoveProposal& b) {
                       return a.gain > b.gain;
                     });

    std::vector<VertexId> kept;
    const CommitOutcome out =
        commit_proposals(p, state, proposals, kept);

    // Incremental bookkeeping intact after apply + rollback.
    state.audit();
    // The (imbalance, cut) key never got worse.
    const Weight imb_after = imbalance_of(state.part_weight(0));
    EXPECT_TRUE(imb_after < imb_before ||
                (imb_after == imb_before && state.cut() <= cut_before))
        << "iter " << iter << ": key worsened";
    EXPECT_EQ(out.kept, kept.size());
    EXPECT_EQ(out.cut_before, cut_before);
    EXPECT_EQ(out.cut_after, state.cut());
    EXPECT_LE(out.kept, out.applied);
    // Fixed vertices never moved.
    for (std::size_t v = 0; v < n; ++v) {
      if (p.is_fixed(static_cast<VertexId>(v))) {
        EXPECT_EQ(state.part(static_cast<VertexId>(v)), p.fixed[v]);
      }
    }

    // Replaying the kept moves on a fresh state reproduces the final
    // assignment, and rerunning the whole commit is deterministic.
    PartitionState replay(h);
    replay.assign(parts);
    for (const VertexId v : kept) replay.move(v);
    EXPECT_EQ(replay.parts(), state.parts()) << "iter " << iter;

    PartitionState rerun(h);
    rerun.assign(parts);
    std::vector<VertexId> kept2;
    const CommitOutcome out2 =
        commit_proposals(p, rerun, proposals, kept2);
    EXPECT_EQ(kept2, kept) << "iter " << iter << ": commit not deterministic";
    EXPECT_EQ(out2.kept, out.kept);
    EXPECT_EQ(out2.applied, out.applied);
    EXPECT_EQ(out2.rejected_balance, out.rejected_balance);
    EXPECT_EQ(rerun.parts(), state.parts());
  }
}

TEST(ParallelCommitFuzz, TightBalanceWindowRejectsOverweightMoves) {
  // Uniform weights, exact-bisection window: any proposal that would tip
  // the scales must be rejected, and at least one such rejection occurs.
  HypergraphBuilder b(8);
  for (VertexId v = 0; v < 8; ++v) b.set_vertex_weight(v, 10);
  for (VertexId v = 0; v + 1 < 8; ++v) {
    b.add_edge({v, static_cast<VertexId>(v + 1)});
  }
  const Hypergraph h = b.finalize("tight");
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_bounds(h.total_vertex_weight(), 40, 40);

  std::vector<PartId> parts = {0, 0, 0, 0, 1, 1, 1, 1};
  PartitionState state(h);
  state.assign(parts);

  // All one-sided proposals: every single one is balance-illegal.
  std::vector<MoveProposal> proposals;
  for (VertexId v = 0; v < 4; ++v) proposals.push_back({v, 1});
  std::vector<VertexId> kept;
  const CommitOutcome out = commit_proposals(p, state, proposals, kept);
  EXPECT_EQ(out.applied, 0u);
  EXPECT_EQ(out.rejected_balance, 4u);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(state.parts(), parts);
  state.audit();
}

TEST(ParallelCommitFuzz, DuplicateAndFixedProposalsAreSkipped) {
  HypergraphBuilder b(6);
  for (VertexId v = 0; v + 1 < 6; ++v) {
    b.add_edge({v, static_cast<VertexId>(v + 1)});
  }
  const Hypergraph h = b.finalize("dups");
  PartitionProblem p = make_problem(h, 0.5);
  p.fixed.assign(6, kNoPart);
  p.fixed[2] = 0;

  std::vector<PartId> parts = {0, 0, 0, 1, 1, 1};
  PartitionState state(h);
  state.assign(parts);

  const std::vector<MoveProposal> proposals = {
      {2, 100},  // fixed -> rejected_other
      {0, 3},
      {0, 3},  // duplicate -> rejected_other
      {5, 1},
  };
  std::vector<VertexId> kept;
  const CommitOutcome out = commit_proposals(p, state, proposals, kept);
  EXPECT_EQ(out.rejected_other, 2u);
  EXPECT_EQ(state.part(2), 0) << "fixed vertex moved";
  state.audit();
}

}  // namespace
}  // namespace vlsipart
