// Reader/writer for the ISPD98 circuit benchmark netlist format [1][2].
//
// A benchmark is a pair of files:
//   <name>.netD — netlist:
//     line 1: 0   (ignored legacy field)
//     line 2: <#pins>
//     line 3: <#nets>
//     line 4: <#modules>
//     line 5: <pad offset>  (modules with index > pad offset are pads;
//                            pads are named p1..pP, cells a0..a(C-1))
//     then one line per pin: "<modname> <s|l> [<I|O|B>]" where 's' starts
//     a new net and 'l' continues the current net.
//   <name>.are — one line per module: "<modname> <area>".
//
// We map modules to dense VertexIds with cells first (a0 -> 0, ...)
// followed by pads (p1 -> C, ...).  Pin directions are checked and
// ignored (the partitioning formulation is undirected, as in the paper).
//
// Grammar the reader enforces (lexical rules in src/io/text_io.h):
//   - '%' comment lines, blank and whitespace-only lines are skipped in
//     both files; CRLF line ends are accepted;
//   - each header line holds exactly one whole decimal number; the module
//     count must fit the 32-bit id space and the pad offset must be below
//     it;
//   - a module name is 'a' or 'p' followed by a whole decimal index
//     ("a1junk", "ax" and "a+1" are errors) in range for its kind;
//   - an area is a whole decimal token ("1x" is an error); areas <= 0
//     read as 1; the area total must fit 64 bits;
//   - a net count that differs from the nets read is a warning, a pin
//     count that differs is an error.
// Every malformed input throws std::runtime_error
// "ispd98 .netD: line N: ..." or "ispd98 .are: line N: ...".
#pragma once

#include <iosfwd>
#include <string>

#include "src/hypergraph/hypergraph.h"

namespace vlsipart {

struct Ispd98Instance {
  Hypergraph hypergraph;
  /// Number of cell modules (aN); pads follow at ids [num_cells, total).
  std::size_t num_cells = 0;
  std::size_t num_pads = 0;
};

Ispd98Instance read_ispd98(std::istream& net_in, std::istream& are_in,
                           std::string name = {});
/// Reads <basepath>.netD and <basepath>.are.
Ispd98Instance read_ispd98_files(const std::string& basepath);

void write_ispd98(const Ispd98Instance& inst, std::ostream& net_out,
                  std::ostream& are_out);
void write_ispd98_files(const Ispd98Instance& inst,
                        const std::string& basepath);

}  // namespace vlsipart
