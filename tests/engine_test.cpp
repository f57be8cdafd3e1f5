// Tests for the engine front door: run_engine spends EngineSpec::threads
// at exactly one level (starts, evo offspring or RB subtrees) and every
// engine's answer is bit-identical at every budget; fixed vertices are
// problem input that the audit checks; each start records its corked
// passes; doubling every net weight doubles every answer's cut and
// moves no vertex.  The budgets are fixed numbers, not the host's CPU
// count, so these tests check the same schedules on any machine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/engine.h"
#include "src/util/rng.h"
#include "tests/cork_fixture.h"

namespace vlsipart {
namespace {

EngineSpec small_spec(const std::string& engine, std::size_t k,
                      std::size_t starts) {
  EngineSpec spec;
  spec.engine = engine;
  spec.k = k;
  spec.tolerance = k == 2 ? 0.1 : 0.2;
  spec.starts = starts;
  spec.seed = 7;
  spec.evo.population = 3;
  spec.evo.generations = 2;
  return spec;
}

TEST(Engine, IdenticalAnswersAtEveryThreadBudget) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const std::string& engine : engine_names()) {
    for (const std::size_t starts : {1u, 3u}) {
      EngineSpec spec = small_spec(engine, 2, starts);
      const EngineResult serial = run_engine(spec, h);
      ASSERT_EQ(serial.error, "") << engine << " starts=" << starts;
      for (const std::size_t threads : {2u, 4u}) {
        spec.threads = threads;
        const EngineResult r = run_engine(spec, h);
        ASSERT_EQ(r.error, "") << engine;
        EXPECT_EQ(r.cut, serial.cut)
            << engine << " starts=" << starts << " threads=" << threads;
        EXPECT_EQ(r.parts, serial.parts)
            << engine << " starts=" << starts << " threads=" << threads;
      }
    }
  }
}

TEST(Engine, KwayIdenticalAnswersAtEveryThreadBudget) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const char* engine : {"ml", "flat", "clip"}) {
    EngineSpec spec = small_spec(engine, 4, 2);
    const EngineResult serial = run_engine(spec, h);
    ASSERT_EQ(serial.error, "") << engine;
    for (const std::size_t threads : {2u, 4u}) {
      spec.threads = threads;
      const EngineResult r = run_engine(spec, h);
      ASSERT_EQ(r.error, "") << engine;
      EXPECT_EQ(r.cut, serial.cut) << engine << " threads=" << threads;
      EXPECT_EQ(r.parts, serial.parts) << engine << " threads=" << threads;
    }
  }
}

// k > 2 is recursive bisection under kway_config(spec), the one place
// a spec becomes a KwayConfig: the served answer equals the config run
// by hand, so a study that varies the config (bench_experiments' kway
// report, with the polish off) varies what run_engine serves.
TEST(Engine, KwayAnswerIsRecursiveBisectionOfItsConfig) {
  const Hypergraph h = generate_netlist(preset("small"));
  for (const char* engine : {"ml", "flat", "clip"}) {
    for (const std::size_t k : {4u, 8u}) {
      const EngineSpec spec = small_spec(engine, k, 2);
      const KwayConfig config = kway_config(spec);
      EXPECT_EQ(config.use_ml, std::string(engine) == "ml") << engine;
      EXPECT_EQ(config.fm.clip, std::string(engine) == "clip") << engine;
      const EngineResult served = run_engine(spec, h);
      ASSERT_EQ(served.error, "") << engine << " k=" << k;
      const KwayResult direct = recursive_bisection(h, config);
      EXPECT_EQ(served.cut, direct.cut) << engine << " k=" << k;
      EXPECT_EQ(served.parts, direct.parts) << engine << " k=" << k;
    }
  }
}

// The initial-solution generator is one FM policy field: run_engine
// hands fm.initial_scheme to every engine, so each answer equals the
// engine built by hand with BFS starts.
TEST(Engine, InitialSchemeReachesEveryEngine) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);
  FmConfig bfs;
  bfs.initial_scheme = InitialScheme::kBfs;
  for (const char* engine : {"flat", "ml", "nlevel"}) {
    EngineSpec spec = small_spec(engine, 2, 3);
    spec.fm = bfs;
    const EngineResult r = run_engine(spec, h);
    ASSERT_EQ(r.error, "") << engine;
    MultistartResult by_hand;
    if (spec.engine == "flat") {
      FlatFmPartitioner flat(bfs);
      by_hand = run_multistart(problem, flat, spec.starts, spec.seed);
    } else if (spec.engine == "ml") {
      MlConfig config;
      config.refine = bfs;
      MlPartitioner ml(config);
      by_hand = run_hmetis_like(problem, ml, spec.starts, spec.vcycles,
                                spec.seed);
    } else {
      NlevelConfig config;
      config.refine = bfs;
      NlevelPartitioner nlevel(config);
      by_hand = run_multistart(problem, nlevel, spec.starts, spec.seed);
    }
    EXPECT_EQ(r.cut, by_hand.best_cut) << engine;
    EXPECT_EQ(r.parts, by_hand.best_parts) << engine;
  }
}

// No served answer depends on a round-engine width: either width other
// than 1 is an error with no parts, on every engine at k = 2 and on the
// recursive-bisection engines at k = 4.
TEST(Engine, RejectsRoundEngineWidths) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  for (const std::size_t k : {2u, 4u}) {
    for (const std::string& engine : engine_names()) {
      if (!engine_spec_error(engine, k).empty()) continue;
      const EngineSpec spec = small_spec(engine, k, 2);
      ASSERT_EQ(run_engine(spec, h).error, "") << engine << " k=" << k;
      EngineSpec refine = spec;
      refine.fm.refine_threads = 2;
      EngineSpec coarsen = spec;
      coarsen.ml.coarsen.coarsen_threads = 2;
      for (const EngineSpec& wide : {refine, coarsen}) {
        const EngineResult r = run_engine(wide, h);
        EXPECT_NE(r.error.find("must be 1"), std::string::npos)
            << engine << " k=" << k << ": " << r.error;
        EXPECT_TRUE(r.parts.empty()) << engine << " k=" << k;
      }
    }
  }
}

std::size_t corked_starts(const EngineResult& r) {
  std::size_t corked = 0;
  for (const StartRecord& start : r.multistart.starts) {
    if (start.work.zero_move_passes > 0) ++corked;
  }
  return corked;
}

// CLIP as published corks on the Sec. 2.3 construction, where no random
// feasible start can move an oversized cell: a start corks when both
// sides' zero-key heads are illegal, which random starts reach a few
// times in 64 (2 here, 9 in 200).  The corking fix never corks.
TEST(Engine, CountsCorkedStartsPerStart) {
  const CorkFixture f;
  EngineSpec spec = small_spec("flat", 2, 64);
  spec.tolerance = 0.05;
  spec.fm.clip = true;
  spec.fm.exclude_oversized = false;
  spec.fm.zero_gain_update = ZeroGainUpdate::kAll;
  spec.fm.insert_order = InsertOrder::kFifo;
  spec.fm.tie_break = TieBreak::kPart0;
  const EngineResult reported = run_engine(spec, f.h);
  ASSERT_EQ(reported.error, "");
  EXPECT_GE(corked_starts(reported), 1u);
  EXPECT_GE(reported.multistart.update_work.zero_move_passes,
            corked_starts(reported));

  spec.fm.exclude_oversized = true;
  spec.fm.zero_gain_update = ZeroGainUpdate::kNonzero;
  spec.fm.insert_order = InsertOrder::kLifo;
  spec.fm.tie_break = TieBreak::kAway;
  const EngineResult ours = run_engine(spec, f.h);
  ASSERT_EQ(ours.error, "");
  EXPECT_EQ(corked_starts(ours), 0u);
  EXPECT_EQ(ours.multistart.update_work.zero_move_passes, 0u);
}

/// Every fifth vertex of `h` fixed, each at a random side.
std::vector<PartId> fifth_fixed(const Hypergraph& h) {
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  Rng pick(3);
  for (std::size_t v = 0; v < h.num_vertices(); v += 5) {
    fixed[v] = static_cast<PartId>(pick.below(2));
  }
  return fixed;
}

// A fifth of the vertices fixed at random sides: every engine that
// honours fixed vertices keeps each one where it was put, and the audit
// would have failed the run otherwise.
TEST(Engine, KeepsFixedVerticesOnTheirSides) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const std::vector<PartId> fixed = fifth_fixed(h);
  for (const char* engine : {"flat", "clip", "ml"}) {
    const EngineResult r = run_engine(small_spec(engine, 2, 3), h, fixed);
    ASSERT_EQ(r.error, "") << engine;
    ASSERT_EQ(r.parts.size(), h.num_vertices()) << engine;
    for (std::size_t v = 0; v < fixed.size(); ++v) {
      if (fixed[v] != kNoPart) {
        EXPECT_EQ(r.parts[v], fixed[v]) << engine << " vertex " << v;
      }
    }
  }
}

// `h` with every net weight doubled: same vertices, weights and pins.
Hypergraph with_doubled_net_weights(const Hypergraph& h) {
  HypergraphBuilder b(h.num_vertices());
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    const auto id = static_cast<VertexId>(v);
    b.set_vertex_weight(id, h.vertex_weight(id));
  }
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto id = static_cast<EdgeId>(e);
    b.add_edge(h.pins(id), 2 * h.edge_weight(id));
  }
  return b.finalize(h.name());
}

// Metamorphic relation: scaling every net weight by two scales every
// gain, rating and cut by two exactly, so no decision changes.  Each
// run must give the same parts as on the original and twice the cut.
void expect_weight_doubling_invariant(const EngineSpec& spec,
                                      bool fix_vertices) {
  for (const Hypergraph& h :
       {generate_netlist(preset("tiny")), generate_netlist(preset("small")),
        generate_netlist(preset("ibm01").scaled(0.2))}) {
    const std::vector<PartId> fixed =
        fix_vertices ? fifth_fixed(h) : std::vector<PartId>{};
    const std::string label = spec.engine + " k=" + std::to_string(spec.k) +
                              " on " + h.name() +
                              (fix_vertices ? " with fixed vertices" : "");
    const EngineResult once = run_engine(spec, h, fixed);
    const EngineResult twice =
        run_engine(spec, with_doubled_net_weights(h), fixed);
    ASSERT_EQ(once.error, "") << label;
    ASSERT_EQ(twice.error, "") << label;
    EXPECT_EQ(twice.parts, once.parts) << label;
    EXPECT_EQ(twice.cut, 2 * once.cut) << label;
  }
}

TEST(WeightDoubling, EveryEngineAtTwoParts) {
  for (const std::string& engine : engine_names()) {
    expect_weight_doubling_invariant(small_spec(engine, 2, 2), false);
  }
}

TEST(WeightDoubling, EveryKwayEngineAtFourParts) {
  for (const std::string& engine : engine_names()) {
    if (!engine_spec_error(engine, 4).empty()) continue;
    expect_weight_doubling_invariant(small_spec(engine, 4, 2), false);
  }
}

TEST(WeightDoubling, EveryEngineWithFixedVertices) {
  for (const std::string& engine : engine_names()) {
    expect_weight_doubling_invariant(small_spec(engine, 2, 2), true);
  }
}

// Recursive bisection does not propagate fixed vertices, so k > 2 with
// fixed vertices is a named error rather than an answer that ignores
// them; a wrongly sized vector is one too.
TEST(Engine, RejectsFixedVerticesItCannotHonour) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  fixed[0] = 1;
  const EngineResult kway = run_engine(small_spec("flat", 4, 2), h, fixed);
  EXPECT_NE(kway.error.find("fixed vertices need k = 2"), std::string::npos)
      << kway.error;
  EXPECT_TRUE(kway.parts.empty());
  fixed.pop_back();
  const EngineResult sized = run_engine(small_spec("flat", 2, 2), h, fixed);
  EXPECT_NE(sized.error.find("fixed vector has"), std::string::npos)
      << sized.error;
}

}  // namespace
}  // namespace vlsipart
