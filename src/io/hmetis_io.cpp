#include "src/io/hmetis_io.h"

#include <fstream>
#include <stdexcept>
#include <vector>

#include "src/io/text_io.h"

namespace vlsipart {

Hypergraph read_hmetis(std::istream& in, std::string name) {
  LineScanner scan(in, "hmetis");
  if (!scan.next_content_line()) {
    throw std::runtime_error("hmetis: empty input");
  }
  const auto num_edges = scan.next_number<std::size_t>("edge count");
  const auto num_vertices = scan.next_number<std::size_t>("vertex count");
  const int fmt = scan.at_end() ? 0 : scan.next_number<int>("fmt");
  scan.expect_end("the header");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11) {
    scan.fail("unsupported fmt " + std::to_string(fmt));
  }
  // Checked before the builder allocates num_vertices weights.
  if (num_vertices > kInvalidVertex) {
    scan.fail("vertex count " + std::to_string(num_vertices) +
              " exceeds the 32-bit id space");
  }
  if (num_edges > kInvalidEdge) {
    scan.fail("edge count " + std::to_string(num_edges) +
              " exceeds the 32-bit id space");
  }
  const bool edge_weights = (fmt == 1 || fmt == 11);
  const bool vertex_weights = (fmt == 10 || fmt == 11);

  HypergraphBuilder builder(num_vertices);
  std::vector<VertexId> pins;
  Weight total_edge_weight = 0;
  for (std::size_t e = 0; e < num_edges; ++e) {
    if (!scan.next_content_line()) {
      scan.fail("truncated edge list at edge " + std::to_string(e + 1) +
                " of " + std::to_string(num_edges));
    }
    Weight w = 1;
    if (edge_weights) {
      w = scan.next_number<Weight>("edge weight");
      if (w <= 0) scan.fail("edge weight must be positive");
      add_to_weight_total(total_edge_weight, w, scan, "total edge weight");
    }
    pins.clear();
    while (!scan.at_end()) {
      const auto pin = scan.next_number<std::size_t>("pin");
      if (pin < 1 || pin > num_vertices) {
        scan.fail("pin out of range: " + std::to_string(pin));
      }
      pins.push_back(static_cast<VertexId>(pin - 1));
    }
    builder.add_edge(pins, w);
  }
  if (vertex_weights) {
    Weight total_vertex_weight = 0;
    for (std::size_t v = 0; v < num_vertices; ++v) {
      if (!scan.next_content_line()) {
        scan.fail("truncated vertex weights at vertex " +
                  std::to_string(v + 1));
      }
      const auto w = scan.next_number<Weight>("vertex weight");
      scan.expect_end("the vertex weight");
      if (w <= 0) scan.fail("vertex weight must be positive");
      add_to_weight_total(total_vertex_weight, w, scan, "total vertex weight");
      builder.set_vertex_weight(static_cast<VertexId>(v), w);
    }
  }
  if (scan.next_content_line()) {
    scan.fail(std::string("unexpected line after the ") +
              (vertex_weights ? "last vertex weight" : "last net") +
              ": the header announces " + std::to_string(num_edges) +
              " nets");
  }
  return builder.finalize(std::move(name));
}

Hypergraph read_hmetis_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("hmetis: cannot open " + path);
  // Instance name = basename without extension.
  std::string name = path;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return read_hmetis(in, name);
}

void write_hmetis(const Hypergraph& h, std::ostream& out) {
  bool any_edge_weight = false;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    if (h.edge_weight(static_cast<EdgeId>(e)) != 1) {
      any_edge_weight = true;
      break;
    }
  }
  bool any_vertex_weight = false;
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    if (h.vertex_weight(static_cast<VertexId>(v)) != 1) {
      any_vertex_weight = true;
      break;
    }
  }
  int fmt = 0;
  if (any_edge_weight) fmt += 1;
  if (any_vertex_weight) fmt += 10;

  BlockWriter w(out);
  w.number(h.num_edges());
  w.put(' ');
  w.number(h.num_vertices());
  if (fmt != 0) {
    w.put(' ');
    w.number(fmt);
  }
  w.put('\n');
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    if (any_edge_weight) {
      w.number(h.edge_weight(static_cast<EdgeId>(e)));
      w.put(' ');
    }
    bool first = true;
    for (const VertexId v : h.pins(static_cast<EdgeId>(e))) {
      if (!first) w.put(' ');
      w.number(v + 1);
      first = false;
    }
    w.put('\n');
  }
  if (any_vertex_weight) {
    for (std::size_t v = 0; v < h.num_vertices(); ++v) {
      w.number(h.vertex_weight(static_cast<VertexId>(v)));
      w.put('\n');
    }
  }
  w.flush();
}

void write_hmetis_file(const Hypergraph& h, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("hmetis: cannot write " + path);
  write_hmetis(h, out);
  close_written(out, "hmetis", path);
}

}  // namespace vlsipart
