// n-level engine tests: exact contract/uncontract roundtrips on the
// dynamic graph, determinism of the full partitioner (bit-identical
// multistart at any thread count, pinned golden digests across a seed
// matrix), fixed-vertex respect, and audited runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/core/multistart.h"
#include "src/part/nlevel/nlevel_graph.h"
#include "src/part/nlevel/nlevel_partitioner.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

// FNV-1a combiner, same idiom as fm_golden_trace_test.
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

/// Full observable snapshot of an NlevelGraph: exact pin layouts (the
/// undo log promises positional restoration, not just set equality),
/// weights, weighted degrees, activity, incidence sizes.
struct GraphSnapshot {
  std::vector<std::vector<VertexId>> pins;
  std::vector<Weight> weight;
  std::vector<Weight> wdeg;
  std::vector<bool> active;
  std::vector<std::size_t> incidence_size;

  static GraphSnapshot take(const NlevelGraph& g) {
    GraphSnapshot s;
    s.pins.resize(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      const auto span = g.pins(static_cast<EdgeId>(e));
      s.pins[e].assign(span.begin(), span.end());
    }
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      const VertexId c = static_cast<VertexId>(v);
      s.weight.push_back(g.cluster_weight(c));
      s.wdeg.push_back(g.weighted_degree(c));
      s.active.push_back(g.active(c));
      s.incidence_size.push_back(g.incident_edges(c).size());
    }
    return s;
  }

  bool operator==(const GraphSnapshot& o) const {
    return pins == o.pins && weight == o.weight && wdeg == o.wdeg &&
           active == o.active && incidence_size == o.incidence_size;
  }
};

TEST(NlevelGraph, ContractUncontractExactRoundtrip) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  NlevelGraph g;
  Rng rng(2024);
  for (int round = 0; round < 8; ++round) {
    g.bind(h);
    // Snapshot after every contraction so uncontraction can be checked
    // level by level, not just end to end.
    std::vector<GraphSnapshot> trail;
    trail.push_back(GraphSnapshot::take(g));
    std::vector<std::pair<VertexId, VertexId>> contracted;
    const std::size_t steps = 1 + rng.below(h.num_vertices() / 2);
    for (std::size_t s = 0; s < steps && g.num_active() >= 2; ++s) {
      // Pick a random active u and a random active partner (prefer a
      // neighbor so shared-net removal paths get exercised).
      VertexId u = static_cast<VertexId>(rng.below(h.num_vertices()));
      while (!g.active(u)) u = static_cast<VertexId>(rng.below(h.num_vertices()));
      VertexId v = kInvalidVertex;
      for (const EdgeId e : g.incident_edges(u)) {
        for (const VertexId w : g.pins(e)) {
          if (w != u) {
            v = w;
            break;
          }
        }
        if (v != kInvalidVertex && rng.below(2) == 0) break;
      }
      if (v == kInvalidVertex) {
        v = static_cast<VertexId>(rng.below(h.num_vertices()));
        while (!g.active(v) || v == u)
          v = static_cast<VertexId>(rng.below(h.num_vertices()));
      }
      g.contract(u, v);
      contracted.push_back({u, v});
      trail.push_back(GraphSnapshot::take(g));
    }
    // Unwind, checking the exact snapshot at every level.
    std::vector<EdgeId> reactivated;
    while (g.num_contractions() > 0) {
      trail.pop_back();
      reactivated.clear();
      const NlevelGraph::Uncontracted uc = g.uncontract(&reactivated);
      EXPECT_EQ(uc.u, contracted.back().first);
      EXPECT_EQ(uc.v, contracted.back().second);
      contracted.pop_back();
      EXPECT_TRUE(GraphSnapshot::take(g) == trail.back())
          << "level " << g.num_contractions() << " not restored exactly";
      // Reactivated nets must now carry both u and v as pins.
      for (const EdgeId e : reactivated) {
        const auto span = g.pins(e);
        EXPECT_NE(std::find(span.begin(), span.end(), uc.u), span.end());
        EXPECT_NE(std::find(span.begin(), span.end(), uc.v), span.end());
      }
    }
  }
}

TEST(NlevelGraph, CurrentClustersChaseAbsorptionChains) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  NlevelGraph g;
  g.bind(h);
  // Chain 0 <- 1 <- 2 (1 absorbs 2, then 0 absorbs 1): every member maps
  // to the representative 0.
  g.contract(1, 2);
  g.contract(0, 1);
  std::vector<VertexId> cluster;
  g.current_clusters(cluster);
  EXPECT_EQ(cluster[0], 0u);
  EXPECT_EQ(cluster[1], 0u);
  EXPECT_EQ(cluster[2], 0u);
  for (std::size_t v = 3; v < h.num_vertices(); ++v)
    EXPECT_EQ(cluster[v], static_cast<VertexId>(v));
}

NlevelConfig small_nlevel_config() {
  NlevelConfig cfg;
  cfg.coarsen_to = 48;
  cfg.initial_tries = 4;
  return cfg;
}

std::uint64_t run_digest(const PartitionProblem& p, const NlevelConfig& cfg,
                         std::uint64_t seed, std::size_t starts,
                         std::size_t threads, Weight* cut_out) {
  NlevelPartitioner engine(cfg);
  const MultistartResult r = run_multistart(p, engine, starts, seed, threads);
  Digest d;
  d.add(static_cast<std::uint64_t>(r.best_cut));
  for (const PartId part : r.best_parts) d.add(part);
  for (const StartRecord& s : r.starts) {
    d.add(static_cast<std::uint64_t>(s.cut));
    d.add(s.feasible ? 1 : 0);
  }
  if (cut_out != nullptr) *cut_out = r.best_cut;
  return d.h;
}

TEST(NlevelDeterminism, BitIdenticalAcrossMultistartThreadCounts) {
  const NlevelConfig cfg = small_nlevel_config();
  for (const char* const instance : {"tiny", "small", "medium"}) {
    const Hypergraph h = generate_netlist(preset(instance));
    const PartitionProblem p = make_problem(h, 0.10);
    const std::uint64_t ref = run_digest(p, cfg, 99, /*starts=*/8,
                                         /*threads=*/1, nullptr);
    for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
      EXPECT_EQ(run_digest(p, cfg, 99, 8, t, nullptr), ref)
          << instance << " diverged at " << t << " threads";
    }
  }
}

TEST(NlevelDeterminism, RepeatedRunsAreBitIdentical) {
  const NlevelConfig cfg = small_nlevel_config();
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.10);
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const std::uint64_t first = run_digest(p, cfg, seed, 4, 1, nullptr);
    EXPECT_EQ(run_digest(p, cfg, seed, 4, 1, nullptr), first) << seed;
  }
}

// Golden digests over the (instance x seed) matrix.  Pinned from the
// first run of this suite (same policy as fm_golden_trace_test): any
// change to the engine's decision sequence shows up here.
struct GoldenEntry {
  const char* instance;
  std::uint64_t seed;
  std::uint64_t digest;
};

TEST(NlevelDeterminism, GoldenDigests) {
  const GoldenEntry kGolden[] = {
      {"tiny", 1, 0xb2f7ba31da43c8c5ULL},
      {"tiny", 7, 0x080fe80196da19a2ULL},
      {"tiny", 42, 0x0820e80196e88cd5ULL},
      {"small", 1, 0xcb4c008d02b2f21dULL},
      {"small", 7, 0xe192326027e0f5edULL},
      {"small", 42, 0xd3859fef515a0ce4ULL},
      {"medium", 1, 0x53542bad12a6ae3fULL},
      {"medium", 7, 0xf5666ec972be120cULL},
      {"medium", 42, 0x1a0c9b634e27b0d2ULL},
  };
  const NlevelConfig cfg = small_nlevel_config();
  for (const GoldenEntry& entry : kGolden) {
    const Hypergraph h = generate_netlist(preset(entry.instance));
    const PartitionProblem p = make_problem(h, 0.10);
    const std::uint64_t digest =
        run_digest(p, cfg, entry.seed, /*starts=*/2, /*threads=*/1, nullptr);
    EXPECT_EQ(digest, entry.digest)
        << entry.instance << " seed " << entry.seed << " digest 0x" << std::hex
        << digest;
  }
}

TEST(NlevelPartitionerTest, ProducesFeasibleSolutions) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.10);
  NlevelConfig cfg = small_nlevel_config();
  NlevelPartitioner engine(cfg);
  Rng rng(5);
  std::vector<PartId> parts;
  const Weight cut = engine.run(p, rng, parts);
  EXPECT_EQ(cut, compute_cut(h, parts));
  EXPECT_TRUE(check_solution(p, parts).empty());
}

TEST(NlevelPartitionerTest, AuditedRunMatchesUnaudited) {
  // Audits are pure observers: forcing per-pass audits, the n-level
  // engine's own per-uncontraction recount and its per-walk key oracle
  // (every bucketed cluster's delta-updated key must equal its
  // from-scratch cluster_gain) must not change the result.  The small
  // preset with fixed vertices runs the delta path past immovable pins.
  for (const char* const instance : {"tiny", "small"}) {
    const Hypergraph h = generate_netlist(preset(instance));
    PartitionProblem p = make_problem(h, 0.10);
    if (std::string(instance) == "small") {
      std::vector<PartId> fixed(h.num_vertices(), kNoPart);
      Rng pick(91);
      for (int i = 0; i < 12; ++i) {
        fixed[pick.below(h.num_vertices())] =
            static_cast<PartId>(pick.below(2));
      }
      p.fixed = fixed;
    }
    NlevelConfig cfg = small_nlevel_config();
    Rng rng1(11), rng2(11);
    std::vector<PartId> plain_parts, audited_parts;
    NlevelPartitioner plain(cfg);
    const Weight plain_cut = plain.run(p, rng1, plain_parts);
    cfg.refine.audit.mode = AuditMode::kPerPass;
    NlevelPartitioner audited(cfg);
    const Weight audited_cut = audited.run(p, rng2, audited_parts);
    EXPECT_EQ(plain_cut, audited_cut) << instance;
    EXPECT_EQ(plain_parts, audited_parts) << instance;
    EXPECT_TRUE(check_solution(p, audited_parts).empty()) << instance;
  }
}

TEST(NlevelPartitionerTest, UpdateWorkIsDeterministic) {
  // The local-search counters follow the FM meaning (nets walked, visits
  // split by delta value) and are pure functions of the run: identical
  // across repeated runs and across multistart thread counts.
  const NlevelConfig cfg = small_nlevel_config();
  const Hypergraph h = generate_netlist(preset("small"));
  const PartitionProblem p = make_problem(h, 0.10);
  const auto work_at = [&](std::size_t threads) {
    NlevelPartitioner engine(cfg);
    return run_multistart(p, engine, /*starts=*/8, /*seed=*/5, threads)
        .update_work;
  };
  const UpdateWork ref = work_at(1);
  EXPECT_GT(ref.nets_walked, 0u);
  EXPECT_GT(ref.nonzero_delta_updates, 0u);
  EXPECT_GT(ref.zero_delta_updates, 0u);
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const UpdateWork w = work_at(t);
    EXPECT_EQ(w.nets_walked, ref.nets_walked) << t << " threads";
    EXPECT_EQ(w.nets_skipped_noncritical, ref.nets_skipped_noncritical)
        << t << " threads";
    EXPECT_EQ(w.nonzero_delta_updates, ref.nonzero_delta_updates)
        << t << " threads";
    EXPECT_EQ(w.zero_delta_updates, ref.zero_delta_updates)
        << t << " threads";
  }
}

TEST(NlevelPartitionerTest, RespectsFixedVertices) {
  const Hypergraph h = generate_netlist(preset("small"));
  PartitionProblem p = make_problem(h, 0.10);
  std::vector<PartId> fixed(h.num_vertices(), kNoPart);
  Rng pick(77);
  for (int i = 0; i < 12; ++i) {
    fixed[pick.below(h.num_vertices())] = static_cast<PartId>(pick.below(2));
  }
  p.fixed = fixed;
  NlevelPartitioner engine(small_nlevel_config());
  Rng rng(3);
  std::vector<PartId> parts;
  engine.run(p, rng, parts);
  for (std::size_t v = 0; v < fixed.size(); ++v) {
    if (fixed[v] != kNoPart) {
      EXPECT_EQ(parts[v], fixed[v]) << "fixed vertex " << v << " moved";
    }
  }
  EXPECT_TRUE(check_solution(p, parts).empty());
}

TEST(NlevelPartitionerTest, CloneIsIndependentAndIdentical) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  const PartitionProblem p = make_problem(h, 0.10);
  NlevelPartitioner engine(small_nlevel_config());
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
