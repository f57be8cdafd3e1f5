// The corking construction of Sec. 2.3, shared by the FM refiner tests
// and the engine tests that count corked starts.
#pragma once

#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/part/core/partition_state.h"

namespace vlsipart {

/// Corking construction (Sec. 2.3): one oversized, highest-gain cell on
/// each side sits at the head of CLIP's zero-gain bucket and blocks the
/// whole pass.
struct CorkFixture {
  Hypergraph h;
  PartitionProblem p;
  std::vector<PartId> parts;

  CorkFixture() {
    HypergraphBuilder b(22);
    // Vertices 0..9 small part-0 cells, 10..19 small part-1 cells,
    // 20 = big cell in part 0, 21 = big cell in part 1.
    b.set_vertex_weight(20, 50);
    b.set_vertex_weight(21, 50);
    // High gain for the big cells: 5 cut 2-pin nets each.
    for (VertexId i = 0; i < 5; ++i) {
      b.add_edge({20, static_cast<VertexId>(10 + i)});
      b.add_edge({21, static_cast<VertexId>(0 + i)});
    }
    // Mildly negative gains for small cells: same-side pair nets.
    for (VertexId i = 0; i + 1 < 10; ++i) {
      b.add_edge({i, static_cast<VertexId>(i + 1)});
      b.add_edge({static_cast<VertexId>(10 + i),
                  static_cast<VertexId>(10 + i + 1)});
    }
    // A few cross nets so small-cell moves can improve the cut.
    b.add_edge({2, 12});
    b.add_edge({3, 13});
    h = b.finalize("cork");
    p.graph = &h;
    // Total weight 120; window must be < 50 so the big cells can never
    // move legally: tolerance 5% -> window 6, parts in [57, 63].
    p.balance = BalanceConstraint::from_tolerance(120, 0.05);
    parts.assign(22, 0);
    for (VertexId i = 10; i < 20; ++i) parts[i] = 1;
    parts[20] = 0;
    parts[21] = 1;
  }
};

}  // namespace vlsipart
