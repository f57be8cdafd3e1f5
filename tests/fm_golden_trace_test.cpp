// Golden-trace determinism harness for the FM hot paths.
//
// The paper's thesis is that implicit implementation decisions change
// results; the repo's corollary is that *performance* work must not.
// These tests pin the exact observable behavior of the refiner — full
// per-move cut traces, pass statistics, final cuts and final assignments
// — as 64-bit digests captured from the seed implementation.  Any
// optimization of the inner loop (net-state delta-gain skipping, sparse
// bucket reset, allocation-free contraction) must reproduce every digest
// bit-for-bit: speed changes, solutions don't.
//
// Regenerating goldens (only legitimate after an *intentional* behavior
// change): run with VLSIPART_GOLDEN_PRINT=1 and paste the printed tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/part/kway/kway_refiner.h"
#include "src/part/kway/recursive_bisection.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {
namespace {

// FNV-1a style combiner over 64-bit lanes.  Order-sensitive by design:
// the digest pins the full sequence of observable events.
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

struct ConfigSpec {
  std::string label;
  FmConfig cfg;
};

std::vector<ConfigSpec> flat_config_matrix() {
  std::vector<ConfigSpec> out;
  for (const bool clip : {false, true}) {
    for (const ZeroGainUpdate z :
         {ZeroGainUpdate::kAll, ZeroGainUpdate::kNonzero}) {
      for (const int depth : {1, 3}) {
        for (const bool cork : {false, true}) {
          FmConfig cfg;
          cfg.clip = clip;
          cfg.zero_gain_update = z;
          cfg.lookahead_depth = depth;
          cfg.exclude_oversized = cork;
          cfg.record_trace = true;
          std::string label = std::string("clip") + (clip ? "1" : "0") +
                              (z == ZeroGainUpdate::kAll ? "-all" : "-nz") +
                              "-la" + std::to_string(depth) +
                              (cork ? "-cork1" : "-cork0");
          out.push_back({std::move(label), cfg});
        }
      }
    }
  }
  // Extra corners: rng-consuming insertion orders, FIFO, and the
  // look-beyond-first/skip-side selection policy.
  {
    FmConfig cfg;
    cfg.insert_order = InsertOrder::kRandom;
    cfg.zero_gain_update = ZeroGainUpdate::kAll;
    cfg.record_trace = true;
    out.push_back({"rand-all", cfg});
  }
  {
    FmConfig cfg;
    cfg.insert_order = InsertOrder::kRandom;
    cfg.zero_gain_update = ZeroGainUpdate::kNonzero;
    cfg.record_trace = true;
    out.push_back({"rand-nz", cfg});
  }
  {
    FmConfig cfg;
    cfg.insert_order = InsertOrder::kFifo;
    cfg.zero_gain_update = ZeroGainUpdate::kNonzero;
    cfg.record_trace = true;
    out.push_back({"fifo-nz", cfg});
  }
  {
    FmConfig cfg;
    cfg.look_beyond_first = true;
    cfg.illegal_head = IllegalHeadPolicy::kSkipSide;
    cfg.record_trace = true;
    out.push_back({"beyond-skipside", cfg});
  }
  return out;
}

/// Digest of one flat refine: every pass's stats and per-move cut trace,
/// then the final cut and the full final assignment.
std::uint64_t flat_digest(const Hypergraph& h, const FmConfig& cfg,
                          Weight* final_cut) {
  const PartitionProblem p = make_problem(h, 0.02);
  Rng init_rng(12345);
  const auto parts = random_initial(p, init_rng);
  PartitionState state(h);
  state.assign(parts);
  FmRefiner refiner(p, cfg);
  Rng rng(67890);
  const FmResult r = refiner.refine(state, rng);

  Digest d;
  d.add(r.passes);
  d.add_signed(r.initial_cut);
  d.add_signed(r.final_cut);
  for (const FmPassStats& s : r.pass_stats) {
    d.add(s.moves_made);
    d.add(s.moves_kept);
    d.add_signed(s.cut_before);
    d.add_signed(s.cut_after);
    d.add(s.stalled ? 1 : 0);
    d.add(s.zero_delta_updates);
    d.add(s.nonzero_delta_updates);
    d.add(s.oversized_excluded);
  }
  for (const auto& trace : r.pass_traces) {
    d.add(trace.size());
    for (const Weight c : trace) d.add_signed(c);
  }
  for (const PartId part : state.parts()) d.add(part);
  *final_cut = state.cut();
  return d.h;
}

/// Digest of one multilevel run (coarsen -> initial -> uncoarsen refine,
/// optional V-cycle): final cut plus the full final assignment.  Pins the
/// contraction/coarsening pipeline, not just the refiner.
std::uint64_t ml_digest(const Hypergraph& h, bool clip, std::size_t vcycles,
                        Weight* final_cut) {
  const PartitionProblem p = make_problem(h, 0.02);
  MlConfig cfg;
  cfg.refine.clip = clip;
  cfg.vcycles = vcycles;
  MlPartitioner ml(cfg);
  Rng rng(424242);
  std::vector<PartId> parts;
  const Weight cut = ml.run(p, rng, parts);

  Digest d;
  d.add_signed(cut);
  for (const PartId part : parts) d.add(part);
  *final_cut = cut;
  return d.h;
}

struct GoldenRow {
  const char* instance;
  const char* config;
  std::uint64_t digest;
  Weight cut;
};

/// Digest of the direct k-way polish on recursive-bisection parts: passes,
/// moves, both cuts and the full polished assignment.
std::uint64_t kway_polish_digest(const Hypergraph& h, std::size_t k,
                                 const std::vector<PartId>& rb_parts,
                                 int max_passes, Weight* final_cut) {
  const KwayProblem p = KwayProblem::uniform(h, k, 0.10);
  KwayState state(h, k);
  state.assign(rb_parts);
  const KwayFmResult r = KwayFmRefiner(p, max_passes).refine(state);

  Digest d;
  d.add(r.passes);
  d.add(r.total_moves);
  d.add_signed(r.initial_cut);
  d.add_signed(r.final_cut);
  for (const PartId part : state.parts()) d.add(part);
  *final_cut = state.cut();
  return d.h;
}

// --- Golden tables (captured from the seed implementation) ---
const std::vector<GoldenRow> kFlatGolden = {
    // clang-format off
#include "tests/fm_golden_flat.inc"
    // clang-format on
};

const std::vector<GoldenRow> kMlGolden = {
    // clang-format off
#include "tests/fm_golden_ml.inc"
    // clang-format on
};

// Captured before the k-way polish kept a per-vertex candidate cache:
// the cache must reproduce the eager recompute bit for bit.
const std::vector<GoldenRow> kKwayGolden = {
    // clang-format off
    {"medium-k4", "rb-polish", 0xd6524509ee7e6670ULL, 187},
    {"medium-k4", "polish-p2", 0x1bb4f3b188ea380aULL, 187},
    {"medium-k4", "polish-full", 0x1bb4f3b188ea380aULL, 187},
    {"medium-k8", "rb-polish", 0x8361bad701a9b175ULL, 311},
    {"medium-k8", "polish-p2", 0x650906d6111df957ULL, 311},
    {"medium-k8", "polish-full", 0x650906d6111df957ULL, 311},
    {"ibm01-k4", "rb-polish", 0xa96fd073ba9aa4a2ULL, 180},
    {"ibm01-k4", "polish-p2", 0x9b6199f6546fbe82ULL, 180},
    {"ibm01-k4", "polish-full", 0x9b6199f6546fbe82ULL, 180},
    {"ibm01-k8", "rb-polish", 0xafbaa5c9b703cfa6ULL, 258},
    {"ibm01-k8", "polish-p2", 0x9215d8dd777fdd04ULL, 258},
    {"ibm01-k8", "polish-full", 0x90e1e295a85c56deULL, 258},
    // clang-format on
};

const char* const kInstances[] = {"tiny", "small", "medium"};

bool print_mode() {
  const char* env = std::getenv("VLSIPART_GOLDEN_PRINT");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(FmGoldenTrace, FlatConfigMatrix) {
  const auto configs = flat_config_matrix();
  const bool print = print_mode();

  std::size_t row = 0;
  for (const char* const instance : kInstances) {
    const Hypergraph h = generate_netlist(preset(instance));
    for (const ConfigSpec& spec : configs) {
      Weight cut = 0;
      const std::uint64_t digest = flat_digest(h, spec.cfg, &cut);
      if (print) {
        std::printf("    {\"%s\", \"%s\", 0x%016llxULL, %lld},\n", instance,
                    spec.label.c_str(),
                    static_cast<unsigned long long>(digest),
                    static_cast<long long>(cut));
        continue;
      }
      ASSERT_LT(row, kFlatGolden.size()) << "golden table too short";
      const GoldenRow& golden = kFlatGolden[row];
      EXPECT_STREQ(golden.instance, instance);
      EXPECT_STREQ(golden.config, spec.label.c_str());
      EXPECT_EQ(golden.cut, cut)
          << instance << "/" << spec.label << ": final cut drifted";
      EXPECT_EQ(golden.digest, digest)
          << instance << "/" << spec.label
          << ": move trace / stats / assignment drifted";
      ++row;
    }
  }
  if (!print) {
    EXPECT_EQ(row, kFlatGolden.size());
  }
}

TEST(FmGoldenTrace, MultilevelPipeline) {
  const bool print = print_mode();

  std::size_t row = 0;
  for (const char* const instance : kInstances) {
    const Hypergraph h = generate_netlist(preset(instance));
    for (const bool clip : {false, true}) {
      for (const std::size_t vcycles : {std::size_t{0}, std::size_t{1}}) {
        Weight cut = 0;
        const std::uint64_t digest = ml_digest(h, clip, vcycles, &cut);
        const std::string label = std::string("ml-clip") + (clip ? "1" : "0") +
                                  "-vc" + std::to_string(vcycles);
        if (print) {
          std::printf("    {\"%s\", \"%s\", 0x%016llxULL, %lld},\n", instance,
                      label.c_str(), static_cast<unsigned long long>(digest),
                      static_cast<long long>(cut));
          continue;
        }
        ASSERT_LT(row, kMlGolden.size()) << "golden table too short";
        const GoldenRow& golden = kMlGolden[row];
        EXPECT_STREQ(golden.instance, instance);
        EXPECT_STREQ(golden.config, label.c_str());
        EXPECT_EQ(golden.cut, cut)
            << instance << "/" << label << ": final cut drifted";
        EXPECT_EQ(golden.digest, digest)
            << instance << "/" << label << ": assignment drifted";
        ++row;
      }
    }
  }
  if (!print) {
    EXPECT_EQ(row, kMlGolden.size());
  }
}

/// Recursive bisection plus the direct k-way polish, k = 4 and 8: the
/// end-to-end RB result (polish kept only when balanced) and the polish
/// alone on the unpolished RB parts under each pass policy.
TEST(FmGoldenTrace, KwayPolish) {
  const bool print = print_mode();
  struct PolishSpec {
    const char* label;
    int max_passes;
  };
  const PolishSpec polishes[] = {{"polish-p2", 2}, {"polish-full", 0}};

  std::size_t row = 0;
  const auto check = [&](const std::string& instance, const std::string& label,
                         std::uint64_t digest, Weight cut) {
    if (print) {
      std::printf("    {\"%s\", \"%s\", 0x%016llxULL, %lld},\n",
                  instance.c_str(), label.c_str(),
                  static_cast<unsigned long long>(digest),
                  static_cast<long long>(cut));
      return;
    }
    ASSERT_LT(row, kKwayGolden.size()) << "golden table too short";
    const GoldenRow& golden = kKwayGolden[row];
    EXPECT_STREQ(golden.instance, instance.c_str());
    EXPECT_STREQ(golden.config, label.c_str());
    EXPECT_EQ(golden.cut, cut) << instance << "/" << label << ": cut drifted";
    EXPECT_EQ(golden.digest, digest)
        << instance << "/" << label << ": assignment drifted";
    ++row;
  };
  const std::pair<const char*, double> instances[] = {{"medium", 1.0},
                                                      {"ibm01", 0.3}};
  for (const auto& [name, scale] : instances) {
    const Hypergraph h = generate_netlist(preset(name).scaled(scale));
    for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
      const std::string instance = std::string(name) + "-k" + std::to_string(k);
      KwayConfig config;
      config.k = k;
      config.seed = 5;
      const KwayResult polished = recursive_bisection(h, config);
      Digest d;
      d.add_signed(polished.cut);
      for (const PartId part : polished.parts) d.add(part);
      check(instance, "rb-polish", d.h, polished.cut);

      config.refine_passes = 0;
      const std::vector<PartId> rb_parts = recursive_bisection(h, config).parts;
      for (const PolishSpec& spec : polishes) {
        Weight cut = 0;
        const std::uint64_t digest =
            kway_polish_digest(h, k, rb_parts, spec.max_passes, &cut);
        check(instance, spec.label, digest, cut);
      }
    }
  }
  if (!print) {
    EXPECT_EQ(row, kKwayGolden.size());
  }
}

}  // namespace
}  // namespace vlsipart
