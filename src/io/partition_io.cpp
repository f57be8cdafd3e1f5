#include "src/io/partition_io.h"

#include <fstream>
#include <stdexcept>

#include "src/io/text_io.h"

namespace vlsipart {

std::vector<PartId> read_partition(std::istream& in) {
  LineScanner scan(in, "partition");
  std::vector<PartId> parts;
  while (scan.next_content_line()) {
    const auto p = scan.next_number<unsigned>("part id");
    scan.expect_end("the part id");
    if (p >= kNoPart) scan.fail("part id out of range: " + std::to_string(p));
    parts.push_back(static_cast<PartId>(p));
  }
  return parts;
}

std::vector<PartId> read_partition_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("partition: cannot open " + path);
  return read_partition(in);
}

void write_partition(const std::vector<PartId>& parts, std::ostream& out) {
  BlockWriter w(out);
  for (const PartId p : parts) {
    w.number(static_cast<int>(p));
    w.put('\n');
  }
  w.flush();
}

void write_partition_file(const std::vector<PartId>& parts,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("partition: cannot write " + path);
  write_partition(parts, out);
  close_written(out, "partition", path);
}

}  // namespace vlsipart
