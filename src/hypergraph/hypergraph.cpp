#include "src/hypergraph/hypergraph.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "src/util/checked_narrow.h"
#include "src/util/logging.h"

namespace vlsipart {

void Hypergraph::validate() const {
  const std::size_t n = num_vertices();
  const std::size_t m = num_edges();
  VP_CHECK(edge_offsets_.size() == m + 1, "edge offset arity");
  VP_CHECK(vertex_offsets_.size() == n + 1, "vertex offset arity");
  VP_CHECK(edge_offsets_.front() == 0 && edge_offsets_.back() == edge_pins_.size(),
           "edge offsets span pins");
  VP_CHECK(vertex_offsets_.front() == 0 &&
               vertex_offsets_.back() == vertex_edges_.size(),
           "vertex offsets span incidences");
  VP_CHECK(edge_pins_.size() == vertex_edges_.size(),
           "pin count mismatch between directions");
  for (std::size_t e = 0; e + 1 < edge_offsets_.size(); ++e) {
    VP_CHECK(edge_offsets_[e] <= edge_offsets_[e + 1], "edge offsets monotone");
  }
  for (std::size_t v = 0; v + 1 < vertex_offsets_.size(); ++v) {
    VP_CHECK(vertex_offsets_[v] <= vertex_offsets_[v + 1],
             "vertex offsets monotone");
  }
  Weight vw = 0;
  for (std::size_t v = 0; v < n; ++v) {
    VP_CHECK(vertex_weights_[v] > 0, "vertex weight positive, v=" << v);
    vw += vertex_weights_[v];
  }
  VP_CHECK(vw == total_vertex_weight_, "total vertex weight cached correctly");
  Weight ew = 0;
  for (std::size_t e = 0; e < m; ++e) {
    VP_CHECK(edge_weights_[e] > 0, "edge weight positive, e=" << e);
    ew += edge_weights_[e];
    VP_CHECK(edge_size(static_cast<EdgeId>(e)) >= 2,
             "edges have >= 2 pins, e=" << e);
  }
  VP_CHECK(ew == total_edge_weight_, "total edge weight cached correctly");
  for (const VertexId v : edge_pins_) {
    VP_CHECK(v < n, "pin vertex in range");
  }
  for (const EdgeId e : vertex_edges_) {
    VP_CHECK(e < m, "incident edge in range");
  }
  // Cross-check the two incidence directions by counting (v,e) pairs.
  std::vector<std::size_t> deg_from_edges(n, 0);
  for (std::size_t e = 0; e < m; ++e) {
    for (const VertexId v : pins(static_cast<EdgeId>(e))) {
      ++deg_from_edges[v];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    VP_CHECK(deg_from_edges[v] == degree(static_cast<VertexId>(v)),
             "incidence directions agree, v=" << v);
  }
}

HypergraphBuilder::HypergraphBuilder(std::size_t num_vertices) {
  // Compact-CSR id contract: every vertex id must fit VertexId, with the
  // all-ones value reserved as the kInvalidVertex sentinel.  Checked
  // before the weights are allocated, so a huge count fails here and not
  // in the allocator.
  VP_CHECK(num_vertices <= kInvalidVertex,
           "vertex count " << num_vertices << " exceeds the 32-bit id space");
  vertex_weights_.assign(num_vertices, 1);
}

void HypergraphBuilder::set_vertex_weight(VertexId v, Weight w) {
  VP_CHECK(v < vertex_weights_.size(), "vertex in range");
  VP_CHECK(w > 0, "vertex weight must be positive");
  vertex_weights_[v] = w;
}

EdgeId HypergraphBuilder::add_edge(std::span<const VertexId> pins,
                                   Weight weight) {
  VP_CHECK(weight > 0, "edge weight must be positive");
  // Pins that already ascend strictly (an edge copied from a Hypergraph,
  // or read back from a written file) need no sorted, deduplicated copy.
  if (std::adjacent_find(pins.begin(), pins.end(),
                         std::greater_equal<>()) != pins.end()) {
    scratch_.assign(pins.begin(), pins.end());
    std::sort(scratch_.begin(), scratch_.end());
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    pins = scratch_;
  }
  // Sorted, so the last pin is the largest.
  VP_CHECK(pins.empty() || pins.back() < vertex_weights_.size(),
           "edge pin in range");
  if (pins.size() < 2) return kInvalidEdge;
  // The new edge's id is the current edge count; checked_narrow enforces
  // that it stays below the kInvalidEdge sentinel.
  const auto id = vp::checked_narrow<EdgeId>(edge_weights_.size());
  // The CSR offsets are 32-bit: a pin count past 2^32 - 1 is an error
  // here, before the pins are stored, never a wrapped offset.
  const auto end =
      vp::checked_narrow<std::uint32_t>(edge_pins_.size() + pins.size());
  edge_pins_.insert(edge_pins_.end(), pins.begin(), pins.end());
  edge_offsets_.push_back(end);
  edge_weights_.push_back(weight);
  return id;
}

Hypergraph HypergraphBuilder::finalize(std::string name) {
  Hypergraph h;
  h.name_ = std::move(name);
  h.vertex_weights_ = std::move(vertex_weights_);
  h.edge_weights_ = std::move(edge_weights_);
  h.edge_offsets_ = std::move(edge_offsets_);
  h.edge_pins_ = std::move(edge_pins_);

  const std::size_t n = h.vertex_weights_.size();
  const std::size_t m = h.edge_weights_.size();

  // Counting sort to build the vertex -> edges direction; the same walk
  // sums each vertex's weighted degree.
  h.vertex_offsets_.assign(n + 1, 0);
  for (const VertexId v : h.edge_pins_) {
    ++h.vertex_offsets_[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    h.vertex_offsets_[v + 1] += h.vertex_offsets_[v];
  }
  h.vertex_edges_.resize(h.edge_pins_.size());
  std::vector<std::uint32_t> cursor(h.vertex_offsets_.begin(),
                                    h.vertex_offsets_.end() - 1);
  std::vector<Weight> wdeg(n, 0);
  for (std::size_t e = 0; e < m; ++e) {
    const Weight w = h.edge_weights_[e];
    for (std::size_t p = h.edge_offsets_[e]; p < h.edge_offsets_[e + 1]; ++p) {
      const VertexId v = h.edge_pins_[p];
      h.vertex_edges_[cursor[v]++] = static_cast<EdgeId>(e);
      wdeg[v] += w;
    }
  }
  h.max_weighted_degree_ = 0;
  for (const Weight d : wdeg) {
    h.max_weighted_degree_ = std::max(h.max_weighted_degree_, d);
  }

  h.total_vertex_weight_ = 0;
  h.max_vertex_weight_ = 0;
  for (const Weight w : h.vertex_weights_) {
    h.total_vertex_weight_ += w;
    h.max_vertex_weight_ = std::max(h.max_vertex_weight_, w);
  }
  h.total_edge_weight_ = 0;
  for (const Weight w : h.edge_weights_) h.total_edge_weight_ += w;

  // Leave the builder reusable-but-empty.
  *this = HypergraphBuilder(0);
  return h;
}

}  // namespace vlsipart
