// Partition-solution file IO (one part id per line, vertex order),
// matching the output convention of hMetis' .part files.
//
// Grammar the reader enforces (lexical rules in src/io/text_io.h):
// '%' comment lines, blank and whitespace-only lines are skipped; CRLF
// line ends are accepted; each other line holds one whole decimal part id
// below 255 ("1x", "3.7", "-1" and "+1" are errors).  A malformed line
// throws std::runtime_error "partition: line N: ...".
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/hypergraph/types.h"

namespace vlsipart {

std::vector<PartId> read_partition(std::istream& in);
std::vector<PartId> read_partition_file(const std::string& path);

void write_partition(const std::vector<PartId>& parts, std::ostream& out);
void write_partition_file(const std::vector<PartId>& parts,
                          const std::string& path);

}  // namespace vlsipart
