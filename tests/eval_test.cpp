// Tests for objectives, BSF curves, Pareto-frontier reporting and the
// compare_engines report path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/eval/bsf.h"
#include "src/eval/objectives.h"
#include "src/eval/pareto.h"
#include "src/eval/report.h"
#include "src/gen/netlist_gen.h"
#include "src/hypergraph/hypergraph.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

Hypergraph toy() {
  // 4 vertices (weights 1,2,3,4), nets {0,1}, {1,2,3}, {0,3} (weight 2).
  HypergraphBuilder b(4);
  b.set_vertex_weight(1, 2);
  b.set_vertex_weight(2, 3);
  b.set_vertex_weight(3, 4);
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({0, 3}, 2);
  return b.finalize();
}

TEST(Objectives, CutSize) {
  const Hypergraph h = toy();
  const std::vector<PartId> parts = {0, 0, 1, 1};
  // Cut nets: {1,2,3} (w1) and {0,3} (w2) -> 3.
  EXPECT_EQ(cut_size(h, parts), 3);
  const std::vector<PartId> all0 = {0, 0, 0, 0};
  EXPECT_EQ(cut_size(h, all0), 0);
}

TEST(Objectives, RatioCut) {
  const Hypergraph h = toy();
  const std::vector<PartId> parts = {0, 0, 1, 1};
  // w(P0) = 3, w(P1) = 7, cut = 3.
  EXPECT_DOUBLE_EQ(ratio_cut(h, parts), 3.0 / 21.0);
  const std::vector<PartId> degenerate = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(ratio_cut(h, degenerate), 0.0);
}

TEST(Objectives, ScaledCost) {
  const Hypergraph h = toy();
  const std::vector<PartId> parts = {0, 0, 1, 1};
  // (3/3 + 3/7) / 4.
  EXPECT_DOUBLE_EQ(scaled_cost(h, parts), (1.0 + 3.0 / 7.0) / 4.0);
}

TEST(Objectives, Absorption) {
  const Hypergraph h = toy();
  const std::vector<PartId> all0 = {0, 0, 0, 0};
  // Fully absorbed: every net contributes 1 -> 3.0.
  EXPECT_DOUBLE_EQ(absorption(h, all0), 3.0);
  const std::vector<PartId> parts = {0, 0, 1, 1};
  // {0,1}: both in P0 -> 1. {1,2,3}: P0 has 1 pin (0), P1 has 2 ->
  // (0 + 1)/2 = 0.5. {0,3}: split -> 0.
  EXPECT_DOUBLE_EQ(absorption(h, parts), 1.5);
}

TEST(Objectives, SumOfExternalDegrees) {
  const Hypergraph h = toy();
  const std::vector<PartId> parts = {0, 0, 1, 1};
  // {1,2,3}: (3-1)*1 = 2; {0,3}: (2-1)*2 = 2 -> 4.
  EXPECT_EQ(sum_of_external_degrees(h, parts), 4);
}

TEST(Bsf, ExpectedCurveMonotone) {
  Sample cuts;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) cuts.add(rng.uniform(100.0, 300.0));
  const auto curve =
      expected_bsf_curve(cuts, 0.5, {1, 2, 4, 8, 16, 32, 60});
  ASSERT_EQ(curve.size(), 7u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].expected_cost, curve[i - 1].expected_cost);
    EXPECT_GT(curve[i].cpu_seconds, curve[i - 1].cpu_seconds);
  }
  EXPECT_DOUBLE_EQ(curve[0].cpu_seconds, 0.5);
  EXPECT_NEAR(curve[0].expected_cost, cuts.mean(), 1e-9);
  EXPECT_NEAR(curve.back().expected_cost, cuts.min(), 1e-9);
}

TEST(Bsf, ObservedCurveTracksBest) {
  std::vector<StartRecord> starts;
  const double cuts[] = {50, 40, 45, 30, 60};
  for (double c : cuts) {
    StartRecord r;
    r.cut = static_cast<Weight>(c);
    r.cpu_seconds = 1.0;
    r.feasible = true;
    starts.push_back(r);
  }
  const auto curve = observed_bsf_curve(starts);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve[0].expected_cost, 50);
  EXPECT_DOUBLE_EQ(curve[1].expected_cost, 40);
  EXPECT_DOUBLE_EQ(curve[2].expected_cost, 40);
  EXPECT_DOUBLE_EQ(curve[3].expected_cost, 30);
  EXPECT_DOUBLE_EQ(curve[4].expected_cost, 30);
  EXPECT_DOUBLE_EQ(curve[4].cpu_seconds, 5.0);
}

TEST(Bsf, InfeasibleStartsIgnoredInObservedCurve) {
  std::vector<StartRecord> starts(2);
  starts[0].cut = 10;
  starts[0].feasible = false;
  starts[0].cpu_seconds = 1.0;
  starts[1].cut = 99;
  starts[1].feasible = true;
  starts[1].cpu_seconds = 1.0;
  const auto curve = observed_bsf_curve(starts);
  EXPECT_DOUBLE_EQ(curve[1].expected_cost, 99);
}

TEST(Bsf, SkipsBudgetsBeyondTheSample) {
  // 30 sampled starts say nothing about 50 or 100 starts: E[min of k]
  // would repeat the sample minimum at a CPU cost no run measured.
  Sample cuts;
  for (int i = 0; i < 30; ++i) cuts.add(100.0 + i);
  const auto curve = expected_bsf_curve(cuts, 0.1, {0, 1, 16, 30, 50, 100});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].starts, 1u);
  EXPECT_EQ(curve[1].starts, 16u);
  EXPECT_EQ(curve[2].starts, 30u);
  EXPECT_DOUBLE_EQ(curve[2].expected_cost, 100.0);
  EXPECT_DOUBLE_EQ(curve[2].cpu_seconds, 3.0);

  Sample full;
  for (int i = 0; i < 100; ++i) full.add(100.0 + i);
  EXPECT_EQ(expected_bsf_curve(full, 0.1, {1, 16, 30, 50, 100}).size(), 5u);
}

TEST(Pareto, DominanceIsStrict) {
  const PerfPoint a{10.0, 5.0, "a"};
  const PerfPoint b{9.0, 4.0, "b"};
  const PerfPoint c{10.0, 4.0, "c"};
  EXPECT_TRUE(dominates(b, a));
  EXPECT_FALSE(dominates(a, b));
  EXPECT_FALSE(dominates(c, a));  // equal cost: not strict dominance
  EXPECT_FALSE(dominates(a, a));
}

TEST(Pareto, FrontierDropsDominatedPoints) {
  std::vector<PerfPoint> pts = {
      {100, 1, "fast-bad"}, {50, 10, "slow-good"}, {80, 5, "middle"},
      {90, 6, "dominated-by-middle"}, {120, 2, "dominated-by-fast"},
  };
  const auto frontier = pareto_frontier(pts);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0].label, "fast-bad");
  EXPECT_EQ(frontier[1].label, "middle");
  EXPECT_EQ(frontier[2].label, "slow-good");
}

TEST(Pareto, EqualPointsAllKept) {
  std::vector<PerfPoint> pts = {{10, 1, "x"}, {10, 1, "y"}};
  EXPECT_EQ(pareto_frontier(pts).size(), 2u);
}

TEST(Pareto, FrontierOfEmptyAndSingle) {
  EXPECT_TRUE(pareto_frontier({}).empty());
  const auto single = pareto_frontier({{5, 5, "only"}});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].label, "only");
}

TEST(Pareto, RankingDiagramPicksAffordableBest) {
  std::vector<PerfPoint> pts = {
      {100, 1, "flat"}, {60, 5, "clip"}, {40, 20, "ml"},
  };
  const auto ranking = ranking_diagram(pts, {0.5, 2.0, 10.0, 30.0});
  ASSERT_EQ(ranking.size(), 4u);
  EXPECT_EQ(ranking[0].winner, "");  // nothing affordable at 0.5s
  EXPECT_EQ(ranking[1].winner, "flat");
  EXPECT_EQ(ranking[2].winner, "clip");
  EXPECT_EQ(ranking[3].winner, "ml");
}

EngineSpec report_spec(const std::string& engine, const FmConfig& fm) {
  EngineSpec spec;
  spec.engine = engine;
  spec.tolerance = 0.1;
  spec.starts = 6;
  spec.vcycles = 0;
  spec.seed = 3;
  spec.threads = 2;
  spec.fm = fm;
  return spec;
}

/// "Reported LIFO": All-dgain updates, FIFO reinsertion, Part0 bias.
FmConfig reported_lifo() {
  FmConfig fm;
  fm.zero_gain_update = ZeroGainUpdate::kAll;
  fm.insert_order = InsertOrder::kFifo;
  fm.tie_break = TieBreak::kPart0;
  return fm;
}

std::vector<Weight> start_cuts(const MultistartResult& r) {
  std::vector<Weight> cuts;
  for (const StartRecord& s : r.starts) cuts.push_back(s.cut);
  return cuts;
}

TEST(CompareEngines, SameStartsAsTheHandBuiltEngines) {
  // The report runs registry engines through run_engine on a thread
  // budget; each must reproduce, start for start, the engine the report
  // benches used to build by hand and run serially.
  FmConfig clip;
  clip.clip = true;
  clip.exclude_oversized = true;
  for (const char* instance : {"tiny", "small"}) {
    const Hypergraph h = generate_netlist(preset(instance));
    const std::vector<LabeledSpec> engines = {
        {"flat", report_spec("flat", FmConfig{})},
        {"clip", report_spec("clip", FmConfig{})},
        {"reported", report_spec("flat", reported_lifo())},
        {"ml", report_spec("ml", FmConfig{})},
        {"ml-clip", report_spec("ml", clip)},
    };
    const ComparisonReport report =
        compare_engines(h, engines, ComparisonConfig{});

    PartitionProblem problem;
    problem.graph = &h;
    problem.balance =
        BalanceConstraint::from_tolerance(h.total_vertex_weight(), 0.1);
    FlatFmPartitioner flat{FmConfig{}};
    FlatFmPartitioner flat_clip{clip};
    FlatFmPartitioner reported{reported_lifo()};
    MlConfig ml_config;
    MlPartitioner ml{ml_config};
    ml_config.refine = clip;
    MlPartitioner ml_clip{ml_config};
    Bipartitioner* reference[] = {&flat, &flat_clip, &reported, &ml,
                                  &ml_clip};
    ASSERT_EQ(report.engines.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(start_cuts(report.engines[i].multistart),
                start_cuts(run_multistart(problem, *reference[i], 6, 3)))
          << instance << " " << engines[i].first;
    }
  }
}

TEST(CompareEngines, ReportShapeAndContent) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  std::vector<LabeledSpec> engines;
  for (const std::string& name : engine_names()) {
    engines.emplace_back(name, report_spec(name, FmConfig{}));
  }
  ComparisonConfig config;
  config.budgets = {1, 2, 4, 8};  // 8 > 6 starts: skipped
  const ComparisonReport report = compare_engines(h, engines, config);

  ASSERT_EQ(report.engines.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const EngineReport& er = report.engines[i];
    EXPECT_EQ(er.name, engines[i].first);
    EXPECT_EQ(er.multistart.starts.size(), 6u);
    EXPECT_EQ(er.bsf.size(), 3u);
    EXPECT_EQ(er.versus_baseline.empty(), i == config.baseline);
  }
  EXPECT_EQ(report.points.size(), 15u);
  EXPECT_EQ(report.points[0].label, report.engines[0].name + "@1");
  EXPECT_FALSE(report.frontier.empty());
  EXPECT_LE(report.frontier.size(), report.points.size());
  ASSERT_FALSE(report.ranking.empty());
  // The widest budget affords every point: its winner is the best one.
  double best = report.points[0].cost;
  for (const PerfPoint& p : report.points) best = std::min(best, p.cost);
  EXPECT_DOUBLE_EQ(report.ranking.back().winner_cost, best);
}

TEST(CompareEngines, RejectsBadConfig) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const EngineSpec base = report_spec("flat", FmConfig{});
  const auto check = [&](EngineSpec other) {
    EXPECT_THROW(compare_engines(h, {{"a", base}, {"b", other}},
                                 ComparisonConfig{}),
                 std::logic_error);
  };
  EngineSpec starts = base;
  starts.starts = 5;
  check(starts);
  EngineSpec seed = base;
  seed.seed = 4;
  check(seed);
  EngineSpec tolerance = base;
  tolerance.tolerance = 0.02;
  check(tolerance);
  EngineSpec kway = base;
  kway.k = 4;
  check(kway);
  EngineSpec vcycles = base;
  vcycles.vcycles = 1;
  check(vcycles);

  EXPECT_THROW(compare_engines(h, {}, ComparisonConfig{}), std::logic_error);
  ComparisonConfig config;
  config.baseline = 5;
  EXPECT_THROW(compare_engines(h, {{"a", base}}, config), std::logic_error);
}

TEST(CompareEngines, RunErrorNamesTheEngine) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  try {
    compare_engines(h, {{"mystery", report_spec("nope", FmConfig{})}},
                    ComparisonConfig{});
    FAIL() << "expected a run_engine error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery"), std::string::npos);
  }
}

}  // namespace
}  // namespace vlsipart
