// vpart — command-line hypergraph partitioner (shmetis-style tool).
//
// The adoption-path entry point for this library: reads an hMetis .hgr
// file, an ISPD98 .netD/.are pair, or a built-in synthetic preset;
// partitions 2-way or k-way; writes an hMetis-style .part file and
// prints a report with multiple objectives.
//
// Usage:
//   vpart --hgr circuit.hgr      [options]
//   vpart --ispd98 path/ibm01    [options]   (reads .netD/.are)
//   vpart --case ibm01 [--scale 0.5]         (synthetic preset)
// Options:
//   --k 2           number of parts (k > 2 uses recursive bisection)
//   --tolerance 0.02
//   --engine ml|flat|clip|nlevel|evo   (default ml; --help lists them)
//   --starts 4      independent starts (best kept)
//   --threads 1     thread budget: starts, evo offspring or RB subtrees
//                   (the answer is identical at every value)
//   --vcycles 1     V-cycles applied to the best result (k = 2 only)
//   --seed 1
//   --out out.part  solution file (default <input>.part.<k>)
// FM policy knobs (the paper's Sec. 2.2 implicit decisions, explicit):
//   --tie-break away|part0|toward      --zero-gain all|nonzero
//   --insert-order lifo|fifo|random    --best-choice first|last|balance
//   --illegal-head bucket|side         --look-beyond-first
//   --lookahead R   --max-passes N     --exclude-oversized
//   --audit off|pass|moves  --audit-every N
//   --initial-scheme random|bfs|mixed  (per flat start; per coarsest-
//                   level try of ml, nlevel, evo and k > 2 bisections)
// Multilevel knobs (ml engine):
//   --coarsen-to N  --min-reduction X
// n-level knobs (nlevel engine; shares --coarsen-to):
//   --initial-tries N  --max-cluster-weight W  --local-moves-past-best N
// Memetic knobs (evo engine; nests the full ml surface):
//   --population N  --generations N
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/eval/objectives.h"
#include "src/gen/netlist_gen.h"
#include "src/hypergraph/stats.h"
#include "src/io/hmetis_io.h"
#include "src/io/ispd98_io.h"
#include "src/io/partition_io.h"
#include "src/part/engine.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/timer.h"

using namespace vlsipart;

namespace {

void print_help() {
  std::printf("usage: vpart --hgr FILE | --ispd98 PREFIX | --case NAME "
              "[options]\n\nengines (--engine NAME, default ml):\n");
  for (const EngineInfo& e : engine_registry()) {
    std::printf("  %-8s %s\n", e.name, e.blurb);
  }
  std::printf("\nsee the header comment of examples/vpart.cpp (or DESIGN.md "
              "\"Knob reference\") for the full option list.\n");
}

/// Map a --flag value to an enum through a (name, value) table; throws
/// with the full vocabulary on an unknown spelling.
template <typename Enum>
Enum parse_choice(const CliArgs& args, const std::string& flag,
                  std::initializer_list<std::pair<const char*, Enum>> table,
                  Enum fallback) {
  const std::string value = args.get(flag, "");
  if (value.empty()) return fallback;
  std::string allowed;
  for (const auto& [name, v] : table) {
    if (value == name) return v;
    if (!allowed.empty()) allowed += "|";
    allowed += name;
  }
  throw std::runtime_error("unknown --" + flag + " (" + allowed +
                           "): " + value);
}

/// The full FM policy surface from flags (defaults = FmConfig defaults).
void fm_config_from_args(const CliArgs& args, FmConfig& fm) {
  fm.tie_break = parse_choice(args, "tie-break",
                              {{"away", TieBreak::kAway},
                               {"part0", TieBreak::kPart0},
                               {"toward", TieBreak::kToward}},
                              fm.tie_break);
  fm.zero_gain_update = parse_choice(args, "zero-gain",
                                     {{"all", ZeroGainUpdate::kAll},
                                      {"nonzero", ZeroGainUpdate::kNonzero}},
                                     fm.zero_gain_update);
  fm.insert_order = parse_choice(args, "insert-order",
                                 {{"lifo", InsertOrder::kLifo},
                                  {"fifo", InsertOrder::kFifo},
                                  {"random", InsertOrder::kRandom}},
                                 fm.insert_order);
  fm.best_choice = parse_choice(args, "best-choice",
                                {{"first", BestChoice::kFirst},
                                 {"last", BestChoice::kLast},
                                 {"balance", BestChoice::kBalance}},
                                fm.best_choice);
  fm.illegal_head =
      parse_choice(args, "illegal-head",
                   {{"bucket", IllegalHeadPolicy::kSkipBucket},
                    {"side", IllegalHeadPolicy::kSkipSide}},
                   fm.illegal_head);
  fm.exclude_oversized = args.get_bool("exclude-oversized",
                                       fm.exclude_oversized);
  fm.look_beyond_first = args.get_bool("look-beyond-first",
                                       fm.look_beyond_first);
  int_flag(args, "lookahead", fm.lookahead_depth);
  int_flag(args, "max-passes", fm.max_passes);
  fm.audit.mode = parse_choice(args, "audit",
                               {{"off", AuditMode::kOff},
                                {"pass", AuditMode::kPerPass},
                                {"moves", AuditMode::kPerMoves}},
                               fm.audit.mode);
  int_flag(args, "audit-every", fm.audit.every_moves);
  fm.initial_scheme = parse_choice(args, "initial-scheme",
                                   {{"random", InitialScheme::kRandom},
                                    {"bfs", InitialScheme::kBfs},
                                    {"mixed", InitialScheme::kMixed}},
                                   fm.initial_scheme);
}

/// The ml knob surface (shared by ml, ml recursive bisection and evo)
/// and the n-level and memetic knobs.  run_engine stamps spec.fm into
/// every engine's refine policy.
void engine_configs_from_args(const CliArgs& args, EngineSpec& spec) {
  MlConfig& ml = spec.ml;
  int_flag(args, "coarsen-to", ml.coarsen.coarsen_to);
  ml.coarsen.min_reduction =
      args.get_double("min-reduction", ml.coarsen.min_reduction);

  NlevelConfig& nlevel = spec.nlevel;
  int_flag(args, "coarsen-to", nlevel.coarsen_to);
  int_flag(args, "max-cluster-weight", nlevel.max_cluster_weight);
  int_flag(args, "initial-tries", nlevel.initial_tries);
  int_flag(args, "local-moves-past-best", nlevel.local_moves_past_best);

  EvoConfig& evo = spec.evo;
  int_flag(args, "population", evo.population);
  int_flag(args, "generations", evo.generations);
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"hgr", "ispd98", "case", "scale", "k", "tolerance",
                    "ubfactor", "engine", "starts", "vcycles", "seed",
                    "out", "help", "tie-break", "zero-gain", "insert-order",
                    "best-choice", "illegal-head", "exclude-oversized",
                    "look-beyond-first", "lookahead", "max-passes", "audit",
                    "audit-every", "initial-tries", "coarsen-to",
                    "min-reduction", "max-cluster-weight",
                    "local-moves-past-best", "initial-scheme", "population",
                    "generations", "threads"});
  if (args.get_bool("help")) {
    print_help();
    return 0;
  }
  // Every flag is checked before the instance is read or generated, so
  // a typo costs no parse of a large input.
  EngineSpec spec;  // each flag defaults to the spec's default
  int_flag(args, "k", spec.k);
  // hMetis "UBfactor" parity: UBfactor b means parts within
  // (50 +- b)% of the total, i.e. tolerance = 2b/100.
  spec.tolerance = args.get_double("tolerance", spec.tolerance);
  if (args.has("ubfactor")) {
    spec.tolerance = 2.0 * args.get_double("ubfactor", 1.0) / 100.0;
  }
  spec.engine = CliArgs::check_known_value(
      "engine", args.get("engine", spec.engine), engine_names());
  const std::string unsupported = engine_spec_error(spec.engine, spec.k);
  if (!unsupported.empty()) throw std::runtime_error(unsupported);
  int_flag(args, "starts", spec.starts);
  int_flag(args, "threads", spec.threads);
  int_flag(args, "vcycles", spec.vcycles);
  spec.seed = args.get_uint("seed", spec.seed);
  fm_config_from_args(args, spec.fm);
  engine_configs_from_args(args, spec);

  Hypergraph h;
  std::string source;
  if (args.has("hgr")) {
    source = args.get("hgr", "");
    h = read_hmetis_file(source);
  } else if (args.has("ispd98")) {
    source = args.get("ispd98", "");
    h = read_ispd98_files(source).hypergraph;
  } else {
    const std::string name = args.get("case", "ibm01");
    source = name;
    h = generate_netlist(preset(name).scaled(args.get_double("scale", 0.5)));
  }
  std::printf("%s\n\n", compute_stats(h).to_string(h.name()).c_str());

  CpuTimer timer;
  const EngineResult result = run_engine(spec, h);
  const double cpu = timer.elapsed();
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }
  const std::size_t k = spec.k;
  const std::vector<PartId>& parts = result.parts;

  TextTable report({"metric", "value"});
  report.add_row({"parts", std::to_string(k)});
  report.add_row({"cut", std::to_string(result.cut)});
  if (k == 2) {
    report.add_row({"ratio cut", fmt_fixed(ratio_cut(h, parts) * 1e9, 3) +
                                     "e-9"});
    report.add_row({"absorption", fmt_fixed(absorption(h, parts), 1)});
    report.add_row(
        {"SOED", std::to_string(sum_of_external_degrees(h, parts))});
  }
  report.add_row({"CPU seconds", fmt_fixed(cpu, 3)});
  std::printf("%s\n", report.to_string().c_str());

  const std::string out = args.get(
      "out", (args.has("hgr") || args.has("ispd98") ? source : h.name()) +
                 ".part." + std::to_string(k));
  write_partition_file(parts, out);
  std::printf("solution written to %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
