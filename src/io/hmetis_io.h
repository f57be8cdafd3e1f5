// Reader/writer for the hMetis .hgr hypergraph format.
//
// Format (hMetis-1.5 manual [28]):
//   line 1: <#hyperedges> <#vertices> [fmt]
//     fmt: omitted/0 = unweighted, 1 = edge weights,
//          10 = vertex weights, 11 = both.
//   next #hyperedges lines: [edge-weight] v1 v2 ... (1-based vertex ids)
//   if vertex weights: #vertices further lines with one weight each.
//
// Grammar the reader enforces (lexical rules in src/io/text_io.h):
//   - '%' comment lines, blank and whitespace-only lines are skipped;
//     CRLF line ends are accepted;
//   - every field is a whole decimal token: "1 2 x 3", "1 2.5", "+3" and
//     a header "1 3 0 junk" are errors, as is any token after a vertex
//     weight;
//   - both counts must fit the 32-bit id space; edge and vertex weights
//     must be positive and their totals must fit 64 bits;
//   - lines after the last expected one are ignored.
// Every malformed input throws std::runtime_error "hmetis: line N: ...".
#pragma once

#include <iosfwd>
#include <string>

#include "src/hypergraph/hypergraph.h"

namespace vlsipart {

Hypergraph read_hmetis(std::istream& in, std::string name = {});
Hypergraph read_hmetis_file(const std::string& path);

void write_hmetis(const Hypergraph& h, std::ostream& out);
void write_hmetis_file(const Hypergraph& h, const std::string& path);

}  // namespace vlsipart
