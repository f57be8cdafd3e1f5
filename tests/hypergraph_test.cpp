// Unit tests for the hypergraph substrate: builder, CSR structure,
// validation, statistics, and contraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/gen/netlist_gen.h"
#include "src/hypergraph/contraction.h"
#include "src/hypergraph/hypergraph.h"
#include "src/hypergraph/stats.h"

namespace vlsipart {
namespace {

Hypergraph make_triangleish() {
  // 4 vertices, 3 edges: {0,1}, {1,2,3}, {0,3}.
  HypergraphBuilder b(4);
  b.add_edge({0, 1});
  b.add_edge({1, 2, 3});
  b.add_edge({0, 3});
  return b.finalize("triangleish");
}

TEST(HypergraphBuilder, BasicCounts) {
  Hypergraph h = make_triangleish();
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 3u);
  EXPECT_EQ(h.num_pins(), 7u);
  h.validate();
}

TEST(HypergraphBuilder, PinsAndIncidence) {
  Hypergraph h = make_triangleish();
  const auto pins1 = h.pins(1);
  ASSERT_EQ(pins1.size(), 3u);
  EXPECT_EQ(pins1[0], 1u);
  EXPECT_EQ(pins1[1], 2u);
  EXPECT_EQ(pins1[2], 3u);
  EXPECT_EQ(h.degree(0), 2u);
  EXPECT_EQ(h.degree(1), 2u);
  EXPECT_EQ(h.degree(2), 1u);
  EXPECT_EQ(h.degree(3), 2u);
  const auto edges3 = h.incident_edges(3);
  ASSERT_EQ(edges3.size(), 2u);
  EXPECT_EQ(edges3[0], 1u);
  EXPECT_EQ(edges3[1], 2u);
}

TEST(HypergraphBuilder, DuplicatePinsRemoved) {
  HypergraphBuilder b(3);
  const EdgeId e = b.add_edge({0, 1, 1, 0});
  EXPECT_NE(e, kInvalidEdge);
  Hypergraph h = b.finalize();
  EXPECT_EQ(h.edge_size(0), 2u);
  h.validate();
}

TEST(HypergraphBuilder, SingletonEdgeDropped) {
  HypergraphBuilder b(3);
  EXPECT_EQ(b.add_edge({1, 1, 1}), kInvalidEdge);
  EXPECT_EQ(b.add_edge(std::initializer_list<VertexId>{2}), kInvalidEdge);
  Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_edges(), 0u);
}

TEST(HypergraphBuilder, WeightsTracked) {
  HypergraphBuilder b(3);
  b.set_vertex_weight(0, 5);
  b.set_vertex_weight(1, 7);
  b.add_edge({0, 1}, 3);
  b.add_edge({1, 2}, 2);
  Hypergraph h = b.finalize();
  EXPECT_EQ(h.total_vertex_weight(), 5 + 7 + 1);
  EXPECT_EQ(h.max_vertex_weight(), 7);
  EXPECT_EQ(h.total_edge_weight(), 5);
  EXPECT_EQ(h.edge_weight(0), 3);
  h.validate();
}

TEST(HypergraphBuilder, RejectsBadInput) {
  HypergraphBuilder b(2);
  EXPECT_THROW(b.set_vertex_weight(5, 1), std::logic_error);
  EXPECT_THROW(b.set_vertex_weight(0, 0), std::logic_error);
  EXPECT_THROW(b.add_edge({0, 7}), std::logic_error);
  EXPECT_THROW(b.add_edge({0, 1}, 0), std::logic_error);
}

TEST(HypergraphBuilder, RejectsVertexCountBeyondIdSpaceBeforeAllocating) {
  // 5e9 weights would be a 40 GB allocation: the id-space check must
  // fire first, as a logic_error rather than std::bad_alloc.
  EXPECT_THROW(HypergraphBuilder(std::size_t{5000000000}), std::logic_error);
}

TEST(InstanceStats, MatchesHandComputation) {
  Hypergraph h = make_triangleish();
  const InstanceStats s = compute_stats(h, 3);
  EXPECT_EQ(s.num_vertices, 4u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_EQ(s.num_pins, 7u);
  EXPECT_DOUBLE_EQ(s.avg_net_size, 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.avg_vertex_degree, 7.0 / 4.0);
  EXPECT_EQ(s.max_net_size, 3u);
  EXPECT_EQ(s.max_vertex_degree, 2u);
  EXPECT_EQ(s.num_huge_nets, 1u);  // the 3-pin net with threshold 3
  EXPECT_FALSE(s.to_string("t").empty());
}

TEST(Contraction, MergesParallelNetsAndDropsInternal) {
  // Clusters {0,1} and {2,3}: edge {0,1} collapses; edges {0,2} and
  // {1,3} become parallel coarse nets and merge with summed weight.
  // Cluster ids are non-dense (but in range — they are representative
  // vertex ids) to exercise the first-appearance renumbering.
  HypergraphBuilder b(4);
  b.add_edge({0, 1});
  b.add_edge({0, 2});
  b.add_edge({1, 3});
  Hypergraph h = b.finalize();
  const std::vector<VertexId> clusters = {3, 3, 2, 2};
  const ContractionResult r = contract(h, clusters);
  EXPECT_EQ(r.num_coarse_vertices, 2u);
  EXPECT_EQ(r.coarse.num_edges(), 1u);
  EXPECT_EQ(r.coarse.edge_weight(0), 2);
  EXPECT_EQ(r.nets_collapsed, 1u);
  EXPECT_EQ(r.nets_merged, 1u);
  EXPECT_EQ(r.coarse.total_vertex_weight(), h.total_vertex_weight());
  r.coarse.validate();
}

TEST(Contraction, RejectsOutOfRangeClusterIds) {
  Hypergraph h = make_triangleish();
  const std::vector<VertexId> clusters = {9, 9, 4, 4};
  EXPECT_THROW(contract(h, clusters), std::logic_error);
}

TEST(Contraction, ReusedMemoryMatchesFreshCalls) {
  // Threading one ContractionMemory through successive contractions must
  // produce exactly what memory-less calls produce.
  Hypergraph h = make_triangleish();
  ContractionMemory memory;
  std::vector<std::vector<VertexId>> maps = {
      {0, 0, 1, 1}, {2, 2, 2, 3}, {0, 1, 2, 3}};
  for (const auto& clusters : maps) {
    const ContractionResult fresh = contract(h, clusters);
    const ContractionResult reused = contract(h, clusters, &memory);
    EXPECT_EQ(fresh.fine_to_coarse, reused.fine_to_coarse);
    EXPECT_EQ(fresh.num_coarse_vertices, reused.num_coarse_vertices);
    EXPECT_EQ(fresh.coarse.num_edges(), reused.coarse.num_edges());
    for (std::size_t e = 0; e < fresh.coarse.num_edges(); ++e) {
      const auto id = static_cast<EdgeId>(e);
      EXPECT_EQ(fresh.coarse.edge_weight(id), reused.coarse.edge_weight(id));
      const auto fp = fresh.coarse.pins(id);
      const auto rp = reused.coarse.pins(id);
      ASSERT_EQ(fp.size(), rp.size());
      EXPECT_TRUE(std::equal(fp.begin(), fp.end(), rp.begin()));
    }
    reused.coarse.validate();
  }
}

TEST(Contraction, ProjectionRoundTrip) {
  Hypergraph h = make_triangleish();
  const std::vector<VertexId> clusters = {0, 0, 1, 1};
  const ContractionResult r = contract(h, clusters);
  const std::vector<PartId> coarse_parts = {0, 1};
  const auto fine = project_partition(r.fine_to_coarse, coarse_parts);
  ASSERT_EQ(fine.size(), 4u);
  EXPECT_EQ(fine[0], fine[1]);
  EXPECT_EQ(fine[2], fine[3]);
  EXPECT_NE(fine[0], fine[2]);
}

Weight recount_max_weighted_degree(const Hypergraph& h) {
  Weight best = 0;
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    Weight wdeg = 0;
    for (const EdgeId e : h.incident_edges(static_cast<VertexId>(v))) {
      wdeg += h.edge_weight(e);
    }
    best = std::max(best, wdeg);
  }
  return best;
}

TEST(HypergraphBuilder, MaxWeightedDegreeMatchesRecount) {
  // Vertex 1 sits on {0,1} (weight 2) and {1,2,3} (weight 5): 7.
  HypergraphBuilder b(4);
  b.add_edge({0, 1}, 2);
  b.add_edge({1, 2, 3}, 5);
  b.add_edge({0, 3}, 1);
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.max_weighted_degree(), 7);
  EXPECT_EQ(h.max_weighted_degree(), recount_max_weighted_degree(h));

  // Contraction merges parallel nets, so coarse weighted degrees are
  // sums of fine net weights; the finalized bound must follow them.
  const Hypergraph g = generate_netlist(preset("small"));
  EXPECT_EQ(g.max_weighted_degree(), recount_max_weighted_degree(g));
  std::vector<VertexId> clusters(g.num_vertices());
  for (std::size_t v = 0; v < clusters.size(); ++v) {
    clusters[v] = static_cast<VertexId>(v / 4 * 4);
  }
  const ContractionResult r = contract(g, clusters);
  EXPECT_LT(r.coarse.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.coarse.max_weighted_degree(),
            recount_max_weighted_degree(r.coarse));
  EXPECT_EQ(HypergraphBuilder(3).finalize().max_weighted_degree(), 0);
}

TEST(Generator, RespectsPresetShape) {
  const GenConfig config = preset("small");
  Hypergraph h = generate_netlist(config);
  h.validate();
  const InstanceStats s = compute_stats(h);
  EXPECT_NEAR(static_cast<double>(s.num_vertices),
              static_cast<double>(config.num_cells + config.num_pads), 0.0);
  // Sec. 2.1 shape: avg degree and net size in the 2..6 band, |E|~|V|.
  EXPECT_GT(s.avg_net_size, 2.0);
  EXPECT_LT(s.avg_net_size, 6.0);
  EXPECT_GT(s.avg_vertex_degree, 1.5);
  EXPECT_LT(s.avg_vertex_degree, 8.0);
  EXPECT_GT(s.area_spread, 10.0);  // macros present
}

TEST(Generator, Deterministic) {
  const GenConfig config = preset("tiny");
  Hypergraph a = generate_netlist(config);
  Hypergraph b = generate_netlist(config);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    const auto pa = a.pins(static_cast<EdgeId>(e));
    const auto pb = b.pins(static_cast<EdgeId>(e));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

TEST(Generator, UnknownPresetThrows) {
  EXPECT_THROW(preset("ibm99"), std::invalid_argument);
}

TEST(Generator, IbmPresetNamesComplete) {
  const auto names = ibm_preset_names();
  ASSERT_EQ(names.size(), 18u);
  EXPECT_EQ(names.front(), "ibm01");
  EXPECT_EQ(names.back(), "ibm18");
  for (const auto& n : names) EXPECT_NO_THROW(preset(n));
}

}  // namespace
}  // namespace vlsipart
