// Immutable weighted hypergraph in compressed sparse row (CSR) form.
//
// The representation stores both directions of the incidence relation:
//   * edge -> pins   (vertices on each net), and
//   * vertex -> nets (nets incident to each vertex),
// because FM gain updates walk nets of a moved vertex and then vertices of
// each such net.  Instances follow the paper's characterization of
// real-world inputs: |E| ~ |V|, average degree/net size 3-5, a few huge
// nets, wide cell-area variation (Sec. 2.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hypergraph/types.h"

namespace vlsipart {

class HypergraphBuilder;

class Hypergraph {
 public:
  Hypergraph() = default;

  std::size_t num_vertices() const { return vertex_weights_.size(); }
  std::size_t num_edges() const { return edge_weights_.size(); }
  std::size_t num_pins() const { return edge_pins_.size(); }

  Weight vertex_weight(VertexId v) const { return vertex_weights_[v]; }
  Weight edge_weight(EdgeId e) const { return edge_weights_[e]; }
  Weight total_vertex_weight() const { return total_vertex_weight_; }
  Weight total_edge_weight() const { return total_edge_weight_; }
  Weight max_vertex_weight() const { return max_vertex_weight_; }
  /// Largest sum of incident edge weights over all vertices: the bound
  /// on any vertex's FM gain.
  Weight max_weighted_degree() const { return max_weighted_degree_; }

  /// Vertices (pins) on edge e.
  std::span<const VertexId> pins(EdgeId e) const {
    return {edge_pins_.data() + edge_offsets_[e],
            edge_offsets_[e + 1] - edge_offsets_[e]};
  }
  std::size_t edge_size(EdgeId e) const {
    return edge_offsets_[e + 1] - edge_offsets_[e];
  }

  /// Edges incident to vertex v.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return {vertex_edges_.data() + vertex_offsets_[v],
            vertex_offsets_[v + 1] - vertex_offsets_[v]};
  }
  std::size_t degree(VertexId v) const {
    return vertex_offsets_[v + 1] - vertex_offsets_[v];
  }

  const std::string& name() const { return name_; }

  /// Structural sanity check: offsets monotone, pins in range, both
  /// incidence directions consistent, positive weights.  Throws
  /// std::logic_error on violation.  O(pins).
  void validate() const;

 private:
  friend class HypergraphBuilder;

  std::string name_;
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  // CSR edge -> pins.  Offsets are 32-bit: the builder keeps the pin
  // count below 2^32, and both directions hold one entry per pin.
  std::vector<std::uint32_t> edge_offsets_;    // size num_edges()+1
  std::vector<VertexId> edge_pins_;
  // CSR vertex -> incident edges.
  std::vector<std::uint32_t> vertex_offsets_;  // size num_vertices()+1
  std::vector<EdgeId> vertex_edges_;
  Weight total_vertex_weight_ = 0;
  Weight total_edge_weight_ = 0;
  Weight max_vertex_weight_ = 0;
  Weight max_weighted_degree_ = 0;
};

/// Mutable accumulator that finalizes into an immutable Hypergraph.
class HypergraphBuilder {
 public:
  /// num_vertices fixed up front; all weights default to 1.
  explicit HypergraphBuilder(std::size_t num_vertices);

  std::size_t num_vertices() const { return vertex_weights_.size(); }
  std::size_t num_edges() const { return edge_weights_.size(); }

  void set_vertex_weight(VertexId v, Weight w);

  /// Add a hyperedge over the given pins.  Duplicate pins within one edge
  /// are removed; edges with fewer than 2 distinct pins are dropped
  /// (they can never be cut).  Returns the edge id, or kInvalidEdge if
  /// the edge was dropped.  Throws when the total pin count would pass
  /// 2^32 - 1, the reach of the 32-bit CSR offsets.
  EdgeId add_edge(std::span<const VertexId> pins, Weight weight = 1);
  EdgeId add_edge(std::initializer_list<VertexId> pins, Weight weight = 1) {
    return add_edge(std::span<const VertexId>(pins.begin(), pins.size()),
                    weight);
  }

  /// Build the immutable CSR structure.  The builder is left empty.
  Hypergraph finalize(std::string name = {});

 private:
  std::vector<Weight> vertex_weights_;
  std::vector<Weight> edge_weights_;
  std::vector<std::uint32_t> edge_offsets_{0};
  std::vector<VertexId> edge_pins_;
  std::vector<VertexId> scratch_;
};

}  // namespace vlsipart
