// Memetic engine tests.  The headline property (ISSUE 9): the
// evolutionary loop is bit-identical at ANY evo_threads value and any
// multistart thread count — offspring are pure functions of their fork
// streams and a rank snapshot taken before the parallel section, so the
// schedule can never reach the result.  Plus pinned golden digests, a
// seeded fuzz harness for the recombination V-cycle (balance/fixed
// constraints survive arbitrary parent pairs, audits on), and mutation
// feasibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/core/initial.h"
#include "src/part/core/multistart.h"
#include "src/part/evo/evo_partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
};

PartitionProblem make_problem(const Hypergraph& h, double tol) {
  PartitionProblem p;
  p.graph = &h;
  p.balance = BalanceConstraint::from_tolerance(h.total_vertex_weight(), tol);
  return p;
}

/// Small-but-real config: every operator (seeding, recombination,
/// mutation, elitist replacement) fires at least once.
EvoConfig small_evo_config(std::size_t evo_threads = 1) {
  EvoConfig cfg;
  cfg.population = 3;
  cfg.generations = 2;
  cfg.offspring = 3;
  cfg.mutation_period = 3;  // offspring 2 of each generation mutates
  cfg.mutation_size = 6;
  cfg.evo_threads = evo_threads;
  cfg.ml.initial_tries = 4;
  return cfg;
}

std::uint64_t single_run_digest(const PartitionProblem& p,
                                const EvoConfig& cfg, std::uint64_t seed,
                                Weight* cut_out) {
  EvoPartitioner engine(cfg);
  Rng rng(seed);
  std::vector<PartId> parts;
  const Weight cut = engine.run(p, rng, parts);
  EXPECT_EQ(cut, compute_cut(*p.graph, parts));
  EXPECT_TRUE(check_solution(p, parts).empty());
  Digest d;
  d.add(static_cast<std::uint64_t>(cut));
  for (const PartId part : parts) d.add(part);
  if (cut_out != nullptr) *cut_out = cut;
  return d.h;
}

TEST(EvoDeterminism, BitIdenticalAcrossEvoThreadCounts) {
  for (const char* const instance : {"tiny", "small"}) {
    const Hypergraph h = generate_netlist(preset(instance));
    const PartitionProblem p = make_problem(h, 0.10);
    Weight ref_cut = 0;
    const std::uint64_t ref =
        single_run_digest(p, small_evo_config(1), 31, &ref_cut);
    for (const std::size_t t : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      Weight cut = 0;
      EXPECT_EQ(single_run_digest(p, small_evo_config(t), 31, &cut), ref)
          << instance << " diverged at evo_threads=" << t;
      EXPECT_EQ(cut, ref_cut);
    }
  }
}

std::uint64_t multistart_digest(const PartitionProblem& p,
                                const EvoConfig& cfg, std::uint64_t seed,
                                std::size_t starts, std::size_t threads) {
  EvoPartitioner engine(cfg);
  const MultistartResult r = run_multistart(p, engine, starts, seed, threads);
  Digest d;
  d.add(static_cast<std::uint64_t>(r.best_cut));
  for (const PartId part : r.best_parts) d.add(part);
  for (const StartRecord& s : r.starts) {
    d.add(static_cast<std::uint64_t>(s.cut));
    d.add(s.feasible ? 1 : 0);
  }
  return d.h;
}

TEST(EvoDeterminism, BitIdenticalAcrossMultistartThreadCounts) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.10);
  const std::uint64_t ref =
      multistart_digest(p, small_evo_config(), 55, /*starts=*/4, 1);
  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(multistart_digest(p, small_evo_config(), 55, 4, t), ref)
        << "diverged at " << t << " multistart threads";
  }
}

// Golden digests over the (instance x seed) matrix, pinned from the
// first run (same policy as fm_golden_trace_test / nlevel_test).
struct GoldenEntry {
  const char* instance;
  std::uint64_t seed;
  std::uint64_t digest;
};

TEST(EvoDeterminism, GoldenDigests) {
  const GoldenEntry kGolden[] = {
      {"tiny", 1, 0x71f0233c42eee095ULL},
      {"tiny", 7, 0x71f0233c42eee095ULL},
      {"tiny", 42, 0xcd0e6f3b90bbdd81ULL},
      {"small", 1, 0xeaaea3b9e0d44cd2ULL},
      {"small", 7, 0xba6c779fea16c61aULL},
      {"small", 42, 0x383db2be6da41241ULL},
  };
  for (const GoldenEntry& entry : kGolden) {
    const Hypergraph h = generate_netlist(preset(entry.instance));
    const PartitionProblem p = make_problem(h, 0.10);
    const std::uint64_t digest =
        single_run_digest(p, small_evo_config(), entry.seed, nullptr);
    EXPECT_EQ(digest, entry.digest)
        << entry.instance << " seed " << entry.seed << " digest 0x"
        << std::hex << digest;
  }
}

TEST(EvoFuzz, RecombinationVcycleRespectsConstraints) {
  // Seeded fuzz of the recombination operator in isolation: arbitrary
  // feasible parent pairs (random initial solutions — much more diverse
  // than converged population members), guide = agreement classes, full
  // runtime audits on.  The result must stay feasible and never be
  // worse than the first parent.
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p = make_problem(h, 0.10);
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  Rng pick(123);
  for (int i = 0; i < 6; ++i) {
    fixed[pick.below(h.num_vertices())] = static_cast<PartId>(pick.below(2));
  }
  p.fixed = fixed;

  MlConfig ml;
  ml.initial_tries = 2;
  ml.refine.audit.mode = AuditMode::kPerPass;
  MlPartitioner engine(ml);

  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(1000 + seed);
    std::vector<PartId> p1 = make_initial(p, InitialScheme::kRandom, 0, rng);
    std::vector<PartId> p2 = make_initial(p, InitialScheme::kRandom, 1, rng);
    ASSERT_TRUE(check_solution(p, p1).empty());
    const Weight before = compute_cut(h, p1);
    std::vector<PartId> guide(h.num_vertices());
    for (std::size_t v = 0; v < guide.size(); ++v) {
      guide[v] = static_cast<PartId>(2 * (p1[v] & 1) + (p2[v] & 1));
    }
    std::vector<PartId> child = p1;
    const Weight after = engine.vcycle_guided(p, rng, child, guide);
    EXPECT_LE(after, before) << "seed " << seed;
    EXPECT_EQ(after, compute_cut(h, child)) << "seed " << seed;
    EXPECT_TRUE(check_solution(p, child).empty()) << "seed " << seed;
    for (std::size_t v = 0; v < fixed.size(); ++v) {
      if (fixed[v] != kNoPart) {
        EXPECT_EQ(child[v], fixed[v]);
      }
    }
  }
}

TEST(EvoFuzz, MutationRunsStayFeasible) {
  // Mutation perturbs before repairing; the final population must still
  // be feasible (elitist replacement never keeps an infeasible winner
  // while a feasible one exists, and seeding produces feasible ones).
  const Hypergraph h = generate_netlist(preset("tiny"));
  PartitionProblem p = make_problem(h, 0.05);  // tight window
  EvoConfig cfg = small_evo_config();
  cfg.mutation_period = 1;  // every offspring mutates
  cfg.mutation_size = 16;
  cfg.ml.refine.audit.mode = AuditMode::kPerPass;
  for (const std::uint64_t seed : {2ULL, 12ULL, 22ULL}) {
    EvoPartitioner engine(cfg);
    Rng rng(seed);
    std::vector<PartId> parts;
    const Weight cut = engine.run(p, rng, parts);
    EXPECT_EQ(cut, compute_cut(h, parts));
    EXPECT_TRUE(check_solution(p, parts).empty()) << "seed " << seed;
  }
}

TEST(EvoPartitionerTest, CloneIsIndependentAndIdentical) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.10);
  EvoPartitioner engine(small_evo_config());
  auto cloned = engine.clone();
  ASSERT_NE(cloned, nullptr);
  Rng rng1(9), rng2(9);
  std::vector<PartId> a, b;
  const Weight ca = engine.run(p, rng1, a);
  const Weight cb = cloned->run(p, rng2, b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vlsipart
