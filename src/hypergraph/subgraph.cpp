#include "src/hypergraph/subgraph.h"

#include <vector>

#include "src/util/logging.h"

namespace vlsipart {

Subhypergraph extract_subhypergraph(const Hypergraph& h,
                                    std::span<const VertexId> vertices) {
  Subhypergraph sub;
  sub.to_original.assign(vertices.begin(), vertices.end());

  std::vector<VertexId> local_of(h.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    VP_CHECK(v < h.num_vertices(), "subgraph vertex in range");
    VP_CHECK(local_of[v] == kInvalidVertex,
             "duplicate vertex in subgraph selection: " << v);
    local_of[v] = static_cast<VertexId>(i);
  }

  HypergraphBuilder builder(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    builder.set_vertex_weight(static_cast<VertexId>(i),
                              h.vertex_weight(vertices[i]));
  }

  // Visit each net once via its first internal pin (in block order).
  std::vector<VertexId> pins;
  for (const VertexId v : vertices) {
    for (const EdgeId e : h.incident_edges(v)) {
      const auto span = h.pins(e);
      VertexId owner = kInvalidVertex;
      for (const VertexId u : span) {
        if (local_of[u] != kInvalidVertex) {
          owner = u;
          break;
        }
      }
      if (owner != v) continue;
      pins.clear();
      for (const VertexId u : span) {
        if (local_of[u] != kInvalidVertex) pins.push_back(local_of[u]);
      }
      if (pins.size() < 2) {
        ++sub.nets_dropped;
        continue;
      }
      const EdgeId id = builder.add_edge(pins, h.edge_weight(e));
      if (id != kInvalidEdge) {
        sub.edge_to_original.push_back(e);
      } else {
        ++sub.nets_dropped;
      }
    }
  }
  sub.graph = builder.finalize(h.name() + ".sub");
  return sub;
}

}  // namespace vlsipart
