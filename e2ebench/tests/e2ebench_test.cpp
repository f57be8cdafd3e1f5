// Unit tests of the benchmark's own logic: seeding, the tail statistic,
// span self time and the result checks.  Run with
//   python3 e2ebench/run.py --test
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/check.h"
#include "src/measure.h"
#include "src/part/core/partitioner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/report.h"
#include "src/trace.h"
#include "src/workloads.h"

namespace e2ebench {
namespace {

constexpr double kTinySize = 0.05;

/// One set-up and one pass at a tiny instance size.
PassResult one_pass(const std::string& workload, std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(workload, seed, kTinySize);
  w->setup();
  PassResult pass = w->run_pass(0);
  w->teardown();
  return pass;
}

std::vector<std::string> op_list(const PassResult& pass) {
  std::vector<std::string> ops;
  for (const OpRecord& op : pass.ops) ops.push_back(op.group + " " + op.kind);
  return ops;
}

TEST(Seeding, SameSeedSameOpsAndDigest) {
  for (const std::string& name : workload_names()) {
    const PassResult a = one_pass(name, 3);
    const PassResult b = one_pass(name, 3);
    ASSERT_FALSE(a.ops.empty()) << name;
    EXPECT_EQ(op_list(a), op_list(b)) << name;
    const RunSummary sa = summarize({a}, {0.0});
    const RunSummary sb = summarize({b}, {0.0});
    EXPECT_EQ(sa.cut_digest, sb.cut_digest) << name;
    EXPECT_EQ(sa.failed, 0u) << name << ": " << (sa.errors.empty() ? "" : sa.errors[0]);
  }
}

TEST(Seeding, DifferentSeedDifferentInstances) {
  const auto a = build_instance("ibm01", kTinySize, 0, derive_seed(3, "ibm01"), 0.02);
  const auto b = build_instance("ibm01", kTinySize, 0, derive_seed(4, "ibm01"), 0.02);
  const auto a2 = build_instance("ibm01", kTinySize, 0, derive_seed(3, "ibm01"), 0.02);
  auto pins = [](const Instance& inst) {
    std::vector<vlsipart::VertexId> all;
    for (std::size_t e = 0; e < inst.graph.num_edges(); ++e) {
      const auto p = inst.graph.pins(static_cast<vlsipart::EdgeId>(e));
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  };
  // Relabelled copies of one generated netlist: same size and weight,
  // different vertex numbering; the same seed reproduces it exactly.
  EXPECT_EQ(a->graph.num_pins(), b->graph.num_pins());
  EXPECT_EQ(a->graph.total_vertex_weight(), b->graph.total_vertex_weight());
  EXPECT_NE(pins(*a), pins(*b));
  EXPECT_EQ(pins(*a), pins(*a2));
  EXPECT_NE(op_list(one_pass("service", 3)), op_list(one_pass("service", 4)));
}

TEST(Tail, ElevenLargestOfKnownSamples) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  Tail t = tail_ten_beyond(v);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  std::vector<double> shuffled = {5, 3, 9, 1, 7, 11, 2, 8, 4, 10, 6, 12};
  t = tail_ten_beyond(shuffled);  // n = 12: second smallest
  EXPECT_DOUBLE_EQ(t.value, 2.0);
  EXPECT_NEAR(t.percentile, 100.0 * 2 / 12, 1e-12);

  t = tail_ten_beyond({4, 1, 3});  // too few: the maximum
  EXPECT_DOUBLE_EQ(t.value, 4.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
}

TEST(Trace, SelfTimeOnNestedFixture) {
  // root [0,10] has children a [1,3] and b [2,5] (overlapping: together
  // they cover [1,5]); a has child c [1.5,2]; d [20,21] is another root.
  std::vector<Span> spans(5);
  spans[0] = {"root", 1, 0, 0, 0, 0.0, 10.0, false};
  spans[1] = {"a", 2, 1, 0, 0, 1.0, 3.0, false};
  spans[2] = {"b", 3, 1, 0, 0, 2.0, 5.0, false};
  spans[3] = {"c", 4, 2, 0, 0, 1.5, 2.0, false};
  spans[4] = {"d", 5, 0, 0, 0, 20.0, 21.0, false};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Trace, ScopedSpansNestAndOffIsSilent) {
  Tracer tracer;
  { const ScopedSpan ignored("off"); }  // no active tracer: nothing recorded
  set_active_tracer(&tracer);
  {
    const ScopedSpan outer("outer");
    { const ScopedSpan inner("inner"); }
    trace_count("n", 2.0);
  }
  set_active_tracer(nullptr);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_LE(spans[1].end_s, spans[0].end_s);
  EXPECT_DOUBLE_EQ(tracer.counters().at("n"), 2.0);
}

TEST(Check, OneCorruptedVertexIsAFailedOp) {
  const auto inst = build_instance("ibm01", kTinySize, 0, 0, 0.02);
  vlsipart::FlatFmPartitioner engine(vlsipart::FmConfig{});
  vlsipart::Rng rng(1);
  std::vector<PartId> parts;
  const Weight cut = engine.run(inst->problem, rng, parts);
  ASSERT_EQ(check_bipartition(inst->problem, parts, cut), "");

  // Flip the vertex on the most nets: its move changes the cut, so the
  // recount no longer matches the claimed cut.
  vlsipart::VertexId v = 0;
  for (std::size_t u = 0; u < inst->graph.num_vertices(); ++u) {
    const auto uu = static_cast<vlsipart::VertexId>(u);
    if (inst->graph.degree(uu) > inst->graph.degree(v)) v = uu;
  }
  std::vector<PartId> corrupted = parts;
  corrupted[v] ^= 1;
  ASSERT_NE(recount_cut(inst->graph, corrupted), cut);
  const std::string error = check_bipartition(inst->problem, corrupted, cut);
  EXPECT_NE(error, "");

  PassResult pass;
  pass.ops.push_back({"g", "start", 1.0, cut, true, ""});
  pass.ops.push_back({"g", "start", 1.0, cut, error.empty(), error});
  const RunSummary summary = summarize({pass}, {0.0});
  EXPECT_EQ(summary.attempted, 2u);
  EXPECT_EQ(summary.failed, 1u);
  EXPECT_DOUBLE_EQ(summary.metrics.at("failed_frac").value, 0.5);

  // Unassigned and out-of-window answers fail too.
  corrupted = parts;
  corrupted[v] = 2;
  EXPECT_NE(check_bipartition(inst->problem, corrupted, cut), "");
  std::vector<PartId> lopsided(parts.size(), 0);
  EXPECT_NE(check_bipartition(inst->problem, lopsided, 0), "");
}

TEST(Check, CorruptedKwayAndFixedVertices) {
  const auto inst = build_instance("ibm01", kTinySize, 0, 0, 0.10);
  vlsipart::KwayConfig config;
  config.k = 4;
  const vlsipart::KwayResult r = vlsipart::recursive_bisection(inst->graph, config);
  ASSERT_EQ(check_kway_partition(inst->graph, r.parts, 4, 0.10, r.cut), "");
  std::vector<PartId> bad = r.parts;
  bad[0] = 4;  // part out of range
  EXPECT_NE(check_kway_partition(inst->graph, bad, 4, 0.10, r.cut), "");
  EXPECT_NE(check_kway_partition(inst->graph, r.parts, 4, 0.10, r.cut + 1), "");

  // A fixed vertex placed on the wrong side fails the 2-way check.
  PartitionProblem problem = inst->problem;
  std::vector<PartId> parts(inst->graph.num_vertices());
  for (std::size_t v = 0; v < parts.size(); ++v) parts[v] = v % 2;
  const Weight total = inst->graph.total_vertex_weight();
  problem.balance = vlsipart::BalanceConstraint::from_bounds(total, 0, total);
  const Weight cut = recount_cut(inst->graph, parts);
  ASSERT_EQ(check_bipartition(problem, parts, cut), "");
  problem.fixed.assign(parts.size(), vlsipart::kNoPart);
  problem.fixed[0] = 1 - parts[0];
  EXPECT_NE(check_bipartition(problem, parts, cut), "");
}

TEST(Report, ReplayThatDiffersFails) {
  PassResult first;
  first.ops.push_back({"g", "start", 1.0, 10, true, ""});
  PassResult replay = first;
  replay.ops[0].cut = 11;
  EXPECT_EQ(summarize({first, replay}, {0.0}).failed, 1u);
  PassResult next = replay;
  next.pass = 1;  // a different pass index runs different ops
  EXPECT_EQ(summarize({first, next}, {0.0}).failed, 0u);
}

TEST(Report, CutMetricsReadTheCutPassesOnly) {
  std::vector<PassResult> passes;
  for (std::size_t p = 0; p <= kCutPasses; ++p) {
    PassResult pass;
    pass.pass = p;
    // The pass after the cut passes has the lowest cut of all.
    const Weight cut = p == kCutPasses ? 1 : 10 + static_cast<Weight>(p);
    pass.ops.push_back({"g", "start", 1.0, cut, true, ""});
    passes.push_back(pass);
  }
  const RunSummary all = summarize(passes, {0.0});
  passes.pop_back();
  const RunSummary cut_only = summarize(passes, {0.0});
  EXPECT_DOUBLE_EQ(all.metrics.at("cut_best").value, 10.0);
  EXPECT_DOUBLE_EQ(all.metrics.at("cut_mean").value, 11.0);
  EXPECT_EQ(all.cut_digest, cut_only.cut_digest);
}

}  // namespace
}  // namespace e2ebench
