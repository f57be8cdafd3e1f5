// Tests for sub-hypergraph extraction and connected components.
#include <gtest/gtest.h>

#include "src/gen/netlist_gen.h"
#include "src/hypergraph/subgraph.h"
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {
namespace {

Hypergraph sample() {
  // 6 vertices; nets {0,1,2}, {2,3}, {3,4,5} (w2), {0,5}.
  HypergraphBuilder b(6);
  b.set_vertex_weight(4, 9);
  b.add_edge({0, 1, 2});
  b.add_edge({2, 3});
  b.add_edge({3, 4, 5}, 2);
  b.add_edge({0, 5});
  return b.finalize("sample");
}

TEST(Subgraph, ExtractProjectsNets) {
  const Hypergraph h = sample();
  const std::vector<VertexId> block = {2, 3, 4};
  const Subhypergraph sub = extract_subhypergraph(h, block);
  sub.graph.validate();
  ASSERT_EQ(sub.graph.num_vertices(), 3u);
  // Surviving nets: {2,3} (both internal) and {3,4} (projection of
  // {3,4,5}).  {0,1,2} projects to the single pin {2} and is dropped;
  // {0,5} has no internal pin and is never visited (not counted).
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_EQ(sub.nets_dropped, 1u);
  // Weights carried over (vertex 4 had weight 9, local id 2).
  EXPECT_EQ(sub.graph.vertex_weight(2), 9);
  // The projected net keeps the original weight 2.
  Weight total_edge_weight = 0;
  for (std::size_t e = 0; e < sub.graph.num_edges(); ++e) {
    total_edge_weight += sub.graph.edge_weight(static_cast<EdgeId>(e));
  }
  EXPECT_EQ(total_edge_weight, 3);
  // Mapping is the selection order.
  EXPECT_EQ(sub.to_original[0], 2u);
  EXPECT_EQ(sub.to_original[2], 4u);
  EXPECT_EQ(sub.edge_to_original.size(), sub.graph.num_edges());
}

TEST(Subgraph, FullSelectionIsIsomorphic) {
  const Hypergraph h = generate_netlist(preset("tiny"));
  std::vector<VertexId> all(h.num_vertices());
  for (std::size_t v = 0; v < all.size(); ++v) {
    all[v] = static_cast<VertexId>(v);
  }
  const Subhypergraph sub = extract_subhypergraph(h, all);
  EXPECT_EQ(sub.graph.num_vertices(), h.num_vertices());
  EXPECT_EQ(sub.graph.num_edges(), h.num_edges());
  EXPECT_EQ(sub.graph.num_pins(), h.num_pins());
  EXPECT_EQ(sub.nets_dropped, 0u);
  EXPECT_EQ(sub.graph.total_vertex_weight(), h.total_vertex_weight());
}

TEST(Subgraph, CutConsistencyUnderRestriction) {
  // Property: for a 2-way assignment, the cut restricted to a block's
  // internal nets equals the cut of the extracted sub-hypergraph under
  // the projected assignment.
  const Hypergraph h = generate_netlist(preset("tiny"));
  Rng rng(3);
  std::vector<PartId> parts(h.num_vertices());
  for (auto& p : parts) p = static_cast<PartId>(rng.below(2));
  std::vector<VertexId> block;
  for (std::size_t v = 0; v < h.num_vertices(); v += 2) {
    block.push_back(static_cast<VertexId>(v));
  }
  const Subhypergraph sub = extract_subhypergraph(h, block);
  std::vector<PartId> sub_parts(sub.graph.num_vertices());
  for (std::size_t i = 0; i < sub_parts.size(); ++i) {
    sub_parts[i] = parts[sub.to_original[i]];
  }
  Weight expected = 0;
  for (const EdgeId e : sub.edge_to_original) {
    bool in0 = false;
    bool in1 = false;
    for (const VertexId u : h.pins(e)) {
      // Count only internal pins, matching the projection.
      bool internal = false;
      for (const VertexId b : block) {
        if (b == u) {
          internal = true;
          break;
        }
      }
      if (!internal) continue;
      (parts[u] == 0 ? in0 : in1) = true;
    }
    if (in0 && in1) expected += h.edge_weight(e);
  }
  EXPECT_EQ(compute_cut(sub.graph, sub_parts), expected);
}

TEST(Subgraph, RejectsDuplicatesAndOutOfRange) {
  const Hypergraph h = sample();
  const std::vector<VertexId> dup = {1, 1};
  EXPECT_THROW(extract_subhypergraph(h, dup), std::logic_error);
  const std::vector<VertexId> oob = {99};
  EXPECT_THROW(extract_subhypergraph(h, oob), std::logic_error);
}

}  // namespace
}  // namespace vlsipart
