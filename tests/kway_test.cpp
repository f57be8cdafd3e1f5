// Tests for k-way partitioning via recursive bisection.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string_view>

#include "src/gen/netlist_gen.h"
#include "src/part/kway/recursive_bisection.h"

namespace vlsipart {
namespace {

TEST(KwayCut, HandComputed) {
  HypergraphBuilder b(6);
  b.add_edge({0, 1});        // same part below
  b.add_edge({1, 2, 3});     // spans parts 0 and 1
  b.add_edge({4, 5}, 3);     // same part
  b.add_edge({0, 5});        // spans parts 0 and 2
  const Hypergraph h = b.finalize();
  const std::vector<PartId> parts = {0, 0, 1, 1, 2, 2};
  EXPECT_EQ(kway_cut(h, parts), 2);
  const std::vector<PartId> one_part(6, 0);
  EXPECT_EQ(kway_cut(h, one_part), 0);
}

TEST(KwayCut, MatchesTwoWayCutForK2) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  Rng rng(1);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
  PartitionState s(h);
  s.assign(parts);
  EXPECT_EQ(kway_cut(h, parts), s.cut());
}

struct KwayCase {
  const char* preset;
  double scale;
  std::size_t k;
  double tolerance;
  std::size_t starts_per_level;
  std::uint64_t seed;
};

// ctest names each case by this text: the sweep over "small" by k alone.
void PrintTo(const KwayCase& c, std::ostream* os) {
  if (std::string_view(c.preset) != "small") *os << c.preset << "_k";
  *os << c.k;
}

class KwaySweep : public ::testing::TestWithParam<KwayCase> {};

TEST_P(KwaySweep, ProducesValidKwayPartitions) {
  const KwayCase& c = GetParam();
  const std::size_t k = c.k;
  const Hypergraph h = generate_netlist(preset(c.preset).scaled(c.scale));
  KwayConfig config;
  config.k = k;
  config.tolerance = c.tolerance;
  config.starts_per_level = c.starts_per_level;
  config.seed = c.seed;
  const KwayResult r = recursive_bisection(h, config);
  ASSERT_EQ(r.parts.size(), h.num_vertices());
  // Every part in range and populated.
  std::set<PartId> used(r.parts.begin(), r.parts.end());
  EXPECT_EQ(used.size(), k);
  for (const PartId p : used) EXPECT_LT(p, k);
  // Cut consistent.
  EXPECT_EQ(r.cut, kway_cut(h, r.parts));
  // Balance within the configured tolerance band.
  EXPECT_EQ(check_kway(h, r.parts, k, config.tolerance), "");
  // Part weights sum to total.
  Weight sum = 0;
  for (const Weight w : r.part_weights) sum += w;
  EXPECT_EQ(sum, h.total_vertex_weight());
  // k-1 bisections for a full decomposition.
  EXPECT_EQ(r.bisections, k - 1);
}

// The last case is a seed where the compounded per-level slack used to
// put part 2 at weight 5600, just above check_kway's 5599.6 bound.
INSTANTIATE_TEST_SUITE_P(
    PowersAndOddK, KwaySweep,
    ::testing::Values(KwayCase{"small", 1.0, 2, 0.25, 2, 3},
                      KwayCase{"small", 1.0, 3, 0.25, 2, 3},
                      KwayCase{"small", 1.0, 4, 0.25, 2, 3},
                      KwayCase{"small", 1.0, 5, 0.25, 2, 3},
                      KwayCase{"small", 1.0, 7, 0.25, 2, 3},
                      KwayCase{"small", 1.0, 8, 0.25, 2, 3},
                      KwayCase{"ibm03", 0.3, 4, 0.10, 1,
                               5052232514859876ULL}));

TEST(Kway, MoreCutWithMoreParts) {
  const Hypergraph h = generate_netlist(preset("small"));
  Weight prev = 0;
  for (const std::size_t k : {2, 4, 8}) {
    KwayConfig config;
    config.k = k;
    config.tolerance = 0.25;
    const KwayResult r = recursive_bisection(h, config);
    EXPECT_GE(r.cut, prev);
    prev = r.cut;
  }
}

TEST(Kway, FlatEngineWorksToo) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayConfig config;
  config.k = 4;
  config.tolerance = 0.4;
  config.use_ml = false;
  const KwayResult r = recursive_bisection(h, config);
  EXPECT_EQ(check_kway(h, r.parts, 4, config.tolerance), "");
}

TEST(Kway, DeterministicForSeed) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayConfig config;
  config.k = 4;
  config.tolerance = 0.4;
  config.seed = 9;
  const KwayResult a = recursive_bisection(h, config);
  const KwayResult b = recursive_bisection(h, config);
  EXPECT_EQ(a.parts, b.parts);
  EXPECT_EQ(a.cut, b.cut);
}

// The thread budget runs bisection starts and RB subtrees concurrently
// (k = 3 has a leaf beside a subtree; k = 8 nests three levels), yet the
// answer and the bisection count never move.
TEST(Kway, IdenticalAcrossThreadBudgets) {
  const Hypergraph h = generate_netlist(preset("small"));
  for (const std::size_t k : {3, 8}) {
    KwayConfig config;
    config.k = k;
    config.tolerance = 0.25;
    config.seed = 4;
    const KwayResult serial = recursive_bisection(h, config);
    for (const std::size_t threads : {2, 3, 4}) {
      config.threads = threads;
      const KwayResult r = recursive_bisection(h, config);
      EXPECT_EQ(r.parts, serial.parts) << "k=" << k << " threads=" << threads;
      EXPECT_EQ(r.cut, serial.cut) << "k=" << k << " threads=" << threads;
      EXPECT_EQ(r.bisections, serial.bisections) << "k=" << k;
      EXPECT_EQ(r.bisections, k - 1) << "k=" << k;
    }
  }
}

TEST(Kway, RejectsBadK) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  KwayConfig config;
  config.k = 1;
  EXPECT_THROW(recursive_bisection(h, config), std::logic_error);
  config.k = 200;
  EXPECT_THROW(recursive_bisection(h, config), std::logic_error);
}

TEST(CheckKway, DetectsViolations) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  std::vector<PartId> parts(h.num_vertices(), 0);
  // All in one part of k=2: grossly unbalanced.
  EXPECT_NE(check_kway(h, parts, 2, 0.1), "");
  parts[0] = 5;
  EXPECT_NE(check_kway(h, parts, 2, 0.1), "");
}

}  // namespace
}  // namespace vlsipart
