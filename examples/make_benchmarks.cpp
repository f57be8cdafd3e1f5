// Emit the synthetic ISPD98-like benchmark suite to disk, in hMetis
// .hgr and/or ISPD98 .netD/.are formats, so external tools (hMetis,
// KaHyPar, PaToH, ...) can be run on the exact instances this repo's
// benches use — enabling the "careful contrast to the leading edge"
// the paper demands (Sec. 4).
//
// Usage:
//   make_benchmarks --dir /tmp/suite [--cases ibm01,ibm02] [--scale 1.0]
//                   [--format hgr|ispd98|both]
#include <cstdio>
#include <filesystem>

#include "src/gen/netlist_gen.h"
#include "src/hypergraph/stats.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/util/cli.h"

using namespace vlsipart;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"cases", "dir", "format", "scale"});
  const std::string dir = args.get("dir", "benchmarks");
  const double scale = args.get_double("scale", 1.0);
  const std::string format = args.get("format", "hgr");
  std::vector<std::string> cases = args.get_list("cases", "");
  if (cases.empty()) cases = ibm_preset_names();

  std::filesystem::create_directories(dir);
  for (const auto& name : cases) {
    const GenConfig config = preset(name).scaled(scale);
    const Hypergraph h = generate_netlist(config);
    std::printf("%s\n", compute_stats(h).to_string(name).c_str());
    if (format == "hgr" || format == "both") {
      write_hmetis_file(h, dir + "/" + name + ".hgr");
    }
    if (format == "ispd98" || format == "both") {
      Ispd98Instance inst;
      inst.hypergraph = h;
      inst.num_cells = config.num_cells;
      inst.num_pads = config.num_pads;
      write_ispd98_files(inst, dir + "/" + name);
    }
  }
  std::printf("\nsuite written to %s/ (%s format, scale %.2f)\n",
              dir.c_str(), format.c_str(), scale);
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
