#include "src/io/ispd98_io.h"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "src/io/text_io.h"
#include "src/util/logging.h"

namespace vlsipart {
namespace {

std::size_t read_count_line(LineScanner& scan, const char* what) {
  if (!scan.next_content_line()) scan.fail(std::string("missing ") + what);
  const auto value = scan.next_number<std::size_t>(what);
  scan.expect_end(what);
  return value;
}

/// Parse `token` as a whole decimal number; false when any byte of it is
/// not part of the number or the value does not fit.
bool parse_whole_number(std::string_view token, std::size_t& value) {
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && stop == end;
}

/// Translate an ISPD98 module name to a dense vertex id.
/// Cells "aN" map to N; pads "pN" (1-based) map to num_cells + N - 1.
VertexId module_to_vertex(std::string_view name, std::size_t num_cells,
                          std::size_t num_pads, const LineScanner& scan) {
  std::size_t index = 0;
  if (name.size() < 2 || (name[0] != 'a' && name[0] != 'p') ||
      !parse_whole_number(name.substr(1), index)) {
    scan.fail("bad module name '" + LineScanner::excerpt(name) + "'");
  }
  if (name[0] == 'a') {
    if (index >= num_cells) {
      scan.fail("cell index out of range: " + std::string(name));
    }
    return static_cast<VertexId>(index);
  }
  if (index < 1 || index > num_pads) {
    scan.fail("pad index out of range: " + std::string(name));
  }
  return static_cast<VertexId>(num_cells + index - 1);
}

void write_module(BlockWriter& w, VertexId v, std::size_t num_cells) {
  if (v < num_cells) {
    w.put('a');
    w.number(v);
  } else {
    w.put('p');
    w.number(v - num_cells + 1);
  }
}

}  // namespace

Ispd98Instance read_ispd98(std::istream& net_in, std::istream& are_in,
                           std::string name) {
  // Header.
  LineScanner net(net_in, "ispd98 .netD");
  (void)read_count_line(net, "ignore field");
  const std::size_t num_pins = read_count_line(net, "pin count");
  const std::size_t num_nets = read_count_line(net, "net count");
  const std::size_t num_modules = read_count_line(net, "module count");
  // Checked before the builder allocates num_modules weights.
  if (num_modules > kInvalidVertex) {
    net.fail("module count " + std::to_string(num_modules) +
             " exceeds the 32-bit id space");
  }
  const std::size_t pad_offset = read_count_line(net, "pad offset");
  // By ISPD98 convention pad_offset is the index of the last cell module;
  // modules beyond it are pads.  Files use pad_offset = num_cells - 1.
  if (pad_offset >= num_modules) {
    net.fail("pad offset beyond module count");
  }
  const std::size_t num_cells = pad_offset + 1;
  const std::size_t num_pads = num_modules - num_cells;

  HypergraphBuilder builder(num_modules);

  // Pin lines: "<module> <s|l> [<I|O|B>]"; each 's' closes the net before
  // it, which goes straight to the builder.
  std::vector<VertexId> current_net;
  std::size_t nets_seen = 0;
  std::size_t pins_seen = 0;
  while (pins_seen < num_pins && net.next_content_line()) {
    const VertexId v = module_to_vertex(net.next_word("module name"),
                                        num_cells, num_pads, net);
    const std::string_view marker = net.next_word("pin marker");
    if (marker != "s" && marker != "l") {
      net.fail("bad pin marker '" + LineScanner::excerpt(marker) + "'");
    }
    if (!net.at_end()) {
      const std::string_view direction = net.next_word("pin direction");
      if (direction != "I" && direction != "O" && direction != "B") {
        net.fail("bad pin direction '" + LineScanner::excerpt(direction) +
                 "'");
      }
      net.expect_end("the pin direction");
    }
    if (marker == "s" && !current_net.empty()) {
      builder.add_edge(current_net);
      current_net.clear();
      ++nets_seen;
    }
    current_net.push_back(v);
    ++pins_seen;
  }
  if (!current_net.empty()) {
    builder.add_edge(current_net);
    ++nets_seen;
  }
  if (pins_seen != num_pins) {
    net.fail("pin count mismatch: header says " + std::to_string(num_pins) +
             ", saw " + std::to_string(pins_seen));
  }
  if (net.next_content_line()) {
    net.fail("pin line beyond the header's pin count " +
             std::to_string(num_pins));
  }
  if (nets_seen != num_nets) {
    // Some distributions count degenerate nets differently; warn, accept.
    VP_WARN("ispd98: header net count " << num_nets << " but parsed "
                                        << nets_seen);
  }

  // Areas: "<module> <area>".  The running total starts at num_modules,
  // the default weight of every module, so it bounds the final total.
  LineScanner are(are_in, "ispd98 .are");
  auto total_area = static_cast<Weight>(num_modules);
  std::size_t areas_seen = 0;
  while (are.next_content_line()) {
    const VertexId v = module_to_vertex(are.next_word("module name"),
                                        num_cells, num_pads, are);
    Weight area = are.next_number<Weight>("area");
    are.expect_end("the area");
    if (area <= 0) area = 1;  // pads commonly have area 0; clamp to 1
    add_to_weight_total(total_area, area, are, "total area");
    builder.set_vertex_weight(v, area);
    ++areas_seen;
  }
  if (areas_seen != num_modules) {
    VP_WARN("ispd98: module count " << num_modules << " but " << areas_seen
                                    << " area lines");
  }

  Ispd98Instance inst;
  inst.hypergraph = builder.finalize(std::move(name));
  inst.num_cells = num_cells;
  inst.num_pads = num_pads;
  return inst;
}

Ispd98Instance read_ispd98_files(const std::string& basepath) {
  std::ifstream net_in(basepath + ".netD");
  if (!net_in) {
    net_in.open(basepath + ".net");
  }
  if (!net_in) {
    throw std::runtime_error("ispd98: cannot open " + basepath +
                             ".netD or .net");
  }
  std::ifstream are_in(basepath + ".are");
  if (!are_in) throw std::runtime_error("ispd98: cannot open " + basepath + ".are");
  std::string name = basepath;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  return read_ispd98(net_in, are_in, name);
}

void write_ispd98(const Ispd98Instance& inst, std::ostream& net_out,
                  std::ostream& are_out) {
  const Hypergraph& h = inst.hypergraph;
  BlockWriter net(net_out);
  for (const std::size_t count :
       {std::size_t{0}, h.num_pins(), h.num_edges(), h.num_vertices(),
        inst.num_cells == 0 ? 0 : inst.num_cells - 1}) {
    net.number(count);
    net.put('\n');
  }
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    bool first = true;
    for (const VertexId v : h.pins(static_cast<EdgeId>(e))) {
      write_module(net, v, inst.num_cells);
      net.put(' ');
      net.put(first ? 's' : 'l');
      net.put('\n');
      first = false;
    }
  }
  net.flush();
  BlockWriter are(are_out);
  for (std::size_t v = 0; v < h.num_vertices(); ++v) {
    write_module(are, static_cast<VertexId>(v), inst.num_cells);
    are.put(' ');
    are.number(h.vertex_weight(static_cast<VertexId>(v)));
    are.put('\n');
  }
  are.flush();
}

void write_ispd98_files(const Ispd98Instance& inst,
                        const std::string& basepath) {
  std::ofstream net_out(basepath + ".netD");
  std::ofstream are_out(basepath + ".are");
  if (!net_out || !are_out) {
    throw std::runtime_error("ispd98: cannot write " + basepath);
  }
  write_ispd98(inst, net_out, are_out);
  close_written(net_out, "ispd98", basepath + ".netD");
  close_written(are_out, "ispd98", basepath + ".are");
}

}  // namespace vlsipart
