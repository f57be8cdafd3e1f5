// Tests for the quadrisection placement flow [35].
#include <gtest/gtest.h>

#include <cmath>

#include "src/flows/quadrisection.h"
#include "src/gen/netlist_gen.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

TEST(Quadrisection, AllCellsInsideCore) {
  const Hypergraph h = generate_netlist(preset("small"));
  QuadPlacerConfig config;
  config.core_width = 120.0;
  config.core_height = 90.0;
  const PlacementReport report = quadrisection_place(h, config);
  ASSERT_EQ(report.placement.x.size(), h.num_vertices());
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    EXPECT_GE(report.placement.x[v], 0.0);
    EXPECT_LE(report.placement.x[v], 120.0);
    EXPECT_GE(report.placement.y[v], 0.0);
    EXPECT_LE(report.placement.y[v], 90.0);
  }
}

TEST(Quadrisection, PartitionsAndPropagatesTerminals) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PlacementReport report =
      quadrisection_place(h, QuadPlacerConfig{});
  EXPECT_GT(report.regions_partitioned, 4u);
  EXPECT_GT(report.terminals_created, 0u);
  EXPECT_GT(report.hpwl, 0.0);
}

TEST(Quadrisection, BeatsRandomPlacement) {
  const Hypergraph h = generate_netlist(preset("small"));
  const PlacementReport report =
      quadrisection_place(h, QuadPlacerConfig{});
  const double side =
      std::sqrt(static_cast<double>(h.total_vertex_weight()));
  Placement random;
  random.x.resize(h.num_vertices());
  random.y.resize(h.num_vertices());
  Rng rng(5);
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    random.x[v] = rng.uniform(0.0, side);
    random.y[v] = rng.uniform(0.0, side);
  }
  EXPECT_LT(report.hpwl, 0.7 * hpwl(h, random));
}

TEST(Quadrisection, DeterministicForSeed) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  QuadPlacerConfig config;
  config.seed = 17;
  const PlacementReport a = quadrisection_place(h, config);
  const PlacementReport b = quadrisection_place(h, config);
  EXPECT_EQ(a.placement.x, b.placement.x);
  EXPECT_DOUBLE_EQ(a.hpwl, b.hpwl);
}

TEST(Quadrisection, ComparableToBisectionFlow) {
  // Both flows must land in the same wirelength ballpark (within 2x of
  // each other) on a structured instance.
  const Hypergraph h = generate_netlist(preset("small"));
  const PlacementReport quad = quadrisection_place(h, QuadPlacerConfig{});
  const PlacementReport bis = topdown_place(h, PlacerConfig{});
  EXPECT_LT(quad.hpwl, 2.0 * bis.hpwl);
  EXPECT_LT(bis.hpwl, 2.0 * quad.hpwl);
}

}  // namespace
}  // namespace vlsipart
