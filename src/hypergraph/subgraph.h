// Induced sub-hypergraphs.
//
// Top-down flows (recursive bisection, placement) repeatedly restrict a
// netlist to a block of cells: nets are projected onto their internal
// pins and dropped when fewer than two remain.
#pragma once

#include <span>
#include <vector>

#include "src/hypergraph/hypergraph.h"

namespace vlsipart {

struct Subhypergraph {
  Hypergraph graph;
  /// Sub vertex id -> original vertex id.
  std::vector<VertexId> to_original;
  /// Original edge id of each sub edge.
  std::vector<EdgeId> edge_to_original;
  /// Nets with at least one internal pin that were dropped because
  /// fewer than 2 pins were internal.  (Nets entirely outside the block
  /// are never visited and not counted.)
  std::size_t nets_dropped = 0;
};

/// Restrict `h` to `vertices` (order defines the sub ids; duplicates are
/// rejected).  Each net keeps its internal pins only; nets with < 2
/// internal pins are dropped.  Vertex and edge weights carry over.
Subhypergraph extract_subhypergraph(const Hypergraph& h,
                                    std::span<const VertexId> vertices);

}  // namespace vlsipart
