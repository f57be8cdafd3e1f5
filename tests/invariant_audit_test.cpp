// Tests for the runtime invariant-audit harness: AuditConfig parsing,
// the from-scratch gain/state cross-checks, the fail-fast paths on
// deliberately corrupted structures, and the guarantee that enabling
// audits never changes a result.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "src/gen/netlist_gen.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/part/core/invariant_audit.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

/// RAII guard: sets VLSIPART_AUDIT for one scope, restores on exit.
class ScopedAuditEnv {
 public:
  explicit ScopedAuditEnv(const char* value) {
    const char* old = std::getenv("VLSIPART_AUDIT");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv("VLSIPART_AUDIT");
    } else {
      ::setenv("VLSIPART_AUDIT", value, 1);
    }
  }
  ~ScopedAuditEnv() {
    if (had_old_) {
      ::setenv("VLSIPART_AUDIT", old_.c_str(), 1);
    } else {
      ::unsetenv("VLSIPART_AUDIT");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(AuditConfig, EnvParsing) {
  {
    ScopedAuditEnv env(nullptr);
    EXPECT_FALSE(AuditConfig::from_env().has_value());
  }
  {
    ScopedAuditEnv env("");
    EXPECT_FALSE(AuditConfig::from_env().has_value());
  }
  {
    ScopedAuditEnv env("off");
    const auto config = AuditConfig::from_env();
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->mode, AuditMode::kOff);
    EXPECT_FALSE(config->enabled());
  }
  {
    ScopedAuditEnv env("pass");
    const auto config = AuditConfig::from_env();
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->mode, AuditMode::kPerPass);
    EXPECT_TRUE(config->enabled());
  }
  {
    ScopedAuditEnv env("moves");
    const auto config = AuditConfig::from_env();
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->mode, AuditMode::kPerMoves);
    EXPECT_EQ(config->every_moves, 256u);
  }
  {
    ScopedAuditEnv env("moves:17");
    const auto config = AuditConfig::from_env();
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->mode, AuditMode::kPerMoves);
    EXPECT_EQ(config->every_moves, 17u);
    EXPECT_EQ(config->to_string(), "moves:17");
  }
  {
    ScopedAuditEnv env("bogus");
    EXPECT_THROW(AuditConfig::from_env(), std::logic_error);
  }
  {
    ScopedAuditEnv env("moves:0");
    EXPECT_THROW(AuditConfig::from_env(), std::logic_error);
  }
}

TEST(AuditConfig, EnvOverridesConfig) {
  AuditConfig base;
  base.mode = AuditMode::kPerPass;
  {
    ScopedAuditEnv env(nullptr);
    EXPECT_EQ(AuditConfig::resolve(base).mode, AuditMode::kPerPass);
  }
  {
    ScopedAuditEnv env("off");
    EXPECT_EQ(AuditConfig::resolve(base).mode, AuditMode::kOff);
  }
  {
    ScopedAuditEnv env("moves:4");
    const AuditConfig resolved = AuditConfig::resolve(base);
    EXPECT_EQ(resolved.mode, AuditMode::kPerMoves);
    EXPECT_EQ(resolved.every_moves, 4u);
  }
}

/// Two triangles joined by one bridge net (7 edges, 6 vertices).
Hypergraph small_graph() {
  HypergraphBuilder b(6);
  b.add_edge({0, 1});
  b.add_edge({1, 2});
  b.add_edge({0, 2});
  b.add_edge({3, 4});
  b.add_edge({4, 5});
  b.add_edge({3, 5});
  b.add_edge({2, 3});  // bridge
  return b.finalize("audit-small");
}

PartitionProblem make_problem(const Hypergraph& h) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.4);
  return p;
}

/// Builds a consistent (state, container, view) fixture mirroring what
/// run_pass() constructs, then lets the caller corrupt pieces of it.
struct AuditFixture {
  Hypergraph h = small_graph();
  PartitionProblem problem = make_problem(h);
  FmConfig config;
  PartitionState state{h};
  GainContainer container{h.num_vertices(), InsertOrder::kLifo};
  std::vector<Gain> initial_gain;
  std::vector<std::uint8_t> locked;
  Rng rng{7};

  AuditFixture() {
    state.assign(std::vector<PartId>{0, 0, 0, 1, 1, 1});
    container.reset(16);
    initial_gain.resize(h.num_vertices());
    locked.assign(h.num_vertices(), 0);
    for (std::size_t v = 0; v < h.num_vertices(); ++v) {
      const auto vid = static_cast<VertexId>(v);
      initial_gain[v] = state.gain(vid);
      container.insert(vid, state.part(vid), initial_gain[v], rng);
    }
  }

  FmAuditView view() const {
    FmAuditView out;
    out.problem = &problem;
    out.config = &config;
    out.state = &state;
    out.container = &container;
    out.initial_gain = initial_gain;
    out.locked = locked;
    return out;
  }
};

TEST(InvariantAudit, ConsistentContainerPasses) {
  AuditFixture f;
  EXPECT_NO_THROW(audit_gain_container(f.view()));
  EXPECT_NO_THROW(audit_mid_pass(f.view()));
}

TEST(InvariantAudit, CatchesCorruptedGainKey) {
  AuditFixture f;
  // Shift vertex 2's key by +1 without touching the state: exactly the
  // signature of a delta-gain update bug.
  f.container.update_key(2, +1, f.rng);
  EXPECT_THROW(audit_gain_container(f.view()), std::logic_error);
  try {
    audit_gain_container(f.view());
    FAIL() << "corrupted key not caught";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("gain key drift"), std::string::npos)
        << e.what();
  }
}

TEST(InvariantAudit, CatchesWrongSideBookkeeping) {
  AuditFixture f;
  // Re-home vertex 4 onto side 0 while the state says part 1.
  f.container.remove(4);
  f.container.insert(4, 0, f.initial_gain[4], f.rng);
  EXPECT_THROW(audit_gain_container(f.view()), std::logic_error);
}

TEST(InvariantAudit, CatchesLockedVertexStillContained) {
  AuditFixture f;
  f.locked[1] = 1;  // locked but never removed from the container
  EXPECT_THROW(audit_gain_container(f.view()), std::logic_error);
}

TEST(InvariantAudit, CatchesMissingFreeVertex) {
  AuditFixture f;
  f.container.remove(5);  // removed but not locked
  EXPECT_THROW(audit_gain_container(f.view()), std::logic_error);
}

TEST(InvariantAudit, ClipKeysAreCumulativeDeltas) {
  AuditFixture f;
  f.config.clip = true;
  // CLIP containers start at key 0; the audit must reconstruct the
  // cumulative-delta baseline from initial_gain, not expect raw gains.
  GainContainer clip(f.h.num_vertices(), InsertOrder::kLifo);
  clip.reset(16);
  for (std::size_t v = 0; v < f.h.num_vertices(); ++v) {
    clip.insert_at_head(static_cast<VertexId>(v),
                        f.state.part(static_cast<VertexId>(v)), 0);
  }
  FmAuditView view = f.view();
  view.container = &clip;
  EXPECT_NO_THROW(audit_gain_container(view));
  clip.update_key(0, +2, f.rng);
  EXPECT_THROW(audit_gain_container(view), std::logic_error);
}

TEST(InvariantAudit, PassBoundaryAcceptsConsistentState) {
  AuditFixture f;
  EXPECT_NO_THROW(audit_pass_boundary(f.problem, f.state,
                                      /*imbalance_before=*/0,
                                      /*cut_before=*/f.state.cut()));
}

TEST(InvariantAudit, PassBoundaryRejectsWorsenedCut) {
  AuditFixture f;
  // Pretend the pass started from a strictly better cut at equal
  // imbalance: the rollback guarantee says that cannot happen.
  EXPECT_THROW(audit_pass_boundary(f.problem, f.state, /*imbalance_before=*/0,
                                   /*cut_before=*/f.state.cut() - 1),
               std::logic_error);
}

TEST(InvariantAudit, LockedPinAuditCatchesDrift) {
  AuditFixture f;
  std::array<std::vector<std::uint32_t>, 2> locked_in;
  locked_in[0].assign(f.h.num_edges(), 0);
  locked_in[1].assign(f.h.num_edges(), 0);
  FmAuditView view = f.view();
  view.locked_in = &locked_in;
  EXPECT_NO_THROW(audit_locked_pins(view));
  locked_in[0][3] = 1;  // phantom locked pin
  EXPECT_THROW(audit_locked_pins(view), std::logic_error);
}

TEST(InvariantAudit, PassStartGainAuditCatchesDrift) {
  AuditFixture f;
  EXPECT_NO_THROW(audit_pass_start_gains(f.state, f.initial_gain));
  f.initial_gain[3] += 1;  // a carried gain that missed one delta
  try {
    audit_pass_start_gains(f.state, f.initial_gain);
    FAIL() << "drifted carried gain not caught";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("carried gain drift"),
              std::string::npos)
        << e.what();
  }
}

/// A pass that keeps at most half its moves restores its start state,
/// replays the kept prefix and hands its updated gains to the next pass.
/// Under VLSIPART_AUDIT every hand-over is checked against a from-scratch
/// recompute, and the result equals the unaudited one.
TEST(InvariantAudit, CarriedGainsMatchRecomputeUnderEnvAudit) {
  const Hypergraph h = generate_netlist(preset("ibm01").scaled(0.05));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);

  for (const bool clip : {false, true}) {
    auto run_once = [&](FmResult* result) {
      FmConfig config;
      config.clip = clip;
      Rng rng(11);
      PartitionState state(h);
      state.assign(make_initial(problem, InitialScheme::kRandom, 0, rng));
      FmRefiner refiner(problem, config);
      Rng refine_rng(5);
      *result = refiner.refine(state, refine_rng);
      return state.parts();
    };
    FmResult plain;
    std::vector<PartId> baseline;
    {
      ScopedAuditEnv env(nullptr);
      baseline = run_once(&plain);
    }
    // Some pass other than the last kept at most half its moves, so the
    // next one started from carried gains.
    bool carried = false;
    for (std::size_t p = 0; p + 1 < plain.pass_stats.size(); ++p) {
      const FmPassStats& s = plain.pass_stats[p];
      carried = carried || s.moves_kept <= s.moves_made / 2;
    }
    EXPECT_TRUE(carried) << "clip=" << clip;
    FmResult audited;
    {
      ScopedAuditEnv env("pass");
      EXPECT_EQ(baseline, run_once(&audited)) << "clip=" << clip;
    }
    EXPECT_EQ(plain.final_cut, audited.final_cut);
  }
}

/// Refinement results must be bit-identical with audits off, per-pass,
/// and per-move — audits observe, they never steer.
TEST(InvariantAudit, AuditsNeverChangeResults) {
  const Hypergraph h = generate_netlist(preset("ibm01").scaled(0.05));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);

  auto run_with = [&](AuditMode mode, std::size_t every) {
    FmConfig config;
    config.clip = true;
    config.audit.mode = mode;
    config.audit.every_moves = every;
    Rng rng(42);
    PartitionState state(h);
    state.assign(make_initial(problem, InitialScheme::kRandom, 0, rng));
    FmRefiner refiner(problem, config);
    Rng refine_rng(99);
    refiner.refine(state, refine_rng);
    return state.parts();
  };

  const auto baseline = run_with(AuditMode::kOff, 0);
  EXPECT_EQ(baseline, run_with(AuditMode::kPerPass, 0));
  EXPECT_EQ(baseline, run_with(AuditMode::kPerMoves, 8));
}

/// End-to-end: the ML pipeline (contraction validation + projection cut
/// audit + per-pass FM audits) runs clean under VLSIPART_AUDIT and
/// produces the identical partition.
TEST(InvariantAudit, MlPipelineCleanUnderEnvAudit) {
  const Hypergraph h = generate_netlist(preset("ibm01").scaled(0.05));
  PartitionProblem problem;
  problem.graph = &h;
  problem.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);

  auto run_once = [&]() {
    MlConfig config;
    MlPartitioner partitioner(config);
    Rng rng(7);
    std::vector<PartId> parts;
    partitioner.run(problem, rng, parts);
    return parts;
  };

  std::vector<PartId> baseline;
  {
    ScopedAuditEnv env(nullptr);
    baseline = run_once();
  }
  std::vector<PartId> audited;
  {
    ScopedAuditEnv env("pass");
    audited = run_once();
  }
  EXPECT_EQ(baseline, audited);
}

}  // namespace
}  // namespace vlsipart
