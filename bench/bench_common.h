// Shared helpers of the bench binaries: bench_experiments and
// bench_service.
//
// Every bench, and every experiment of bench_experiments, accepts:
//   --cases ibm01,ibm02,...   instance presets (default per bench)
//   --runs N                  independent starts per cell (default per bench)
//   --scale F                 instance size scale factor (1.0 = published
//                             ISPD98 sizes; defaults < 1 keep default bench
//                             runs to a few minutes)
//   --seed S                  base RNG seed
//   --full                    paper-faithful sizes and run counts
//   --csv                     emit CSV instead of aligned text
//   --json PATH               also append every emitted table to PATH as
//                             JSON lines (per-row metrics + wall/CPU seconds
//                             + thread count), for cross-PR perf tracking
//
// A bench or experiment whose harness can use threads also accepts,
// through `extra`:
//   --threads T               its thread budget (default 1 = serial;
//                             results are bit-identical at any T, see
//                             DESIGN.md "Threading model")
// Every other one rejects --threads like any unknown flag.
//
// The "Reported ..." configurations of Tables 2 and 3 model a weak
// independent implementation (Alpert [2]) as the same engine with the
// WORST combination of implicit decisions, per the paper's thesis that
// "silent implementation choices can swamp the typical claimed
// improvements of algorithm innovations".
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/netlist_gen.h"
#include "src/hypergraph/hypergraph.h"
#include "src/part/core/fm_config.h"
#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/engine.h"
#include "src/util/cli.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace vlsipart::bench {

struct BenchOptions {
  std::vector<std::string> cases;
  std::size_t runs = 10;
  double scale = 0.5;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  ///< 1 unless `extra` allows --threads
  bool csv = false;
  bool full = false;
  std::string json;  // empty = no JSON output
};

/// Wall/CPU consumed by this bench process so far.  The baseline is set
/// at the first call; parse_options primes it at startup.
inline std::pair<double, double> bench_elapsed() {
  static const WallTimer wall;
  static const double cpu0 = process_cpu_seconds();
  return {wall.elapsed(), process_cpu_seconds() - cpu0};
}

inline BenchOptions parse_options(int argc, char** argv,
                                  const std::string& default_cases,
                                  std::size_t default_runs,
                                  double default_scale,
                                  const std::vector<std::string>& extra = {}) {
  bench_elapsed();  // start the process-wide wall/CPU baseline
  const CliArgs args(argc, argv);
  // Common vocabulary + the caller's bench-specific options; an
  // unrecognized spelling ("--thread 8") aborts with a suggestion
  // instead of silently running the default experiment.
  std::vector<std::string> allowed = {"cases", "runs", "scale", "seed",
                                      "full",  "csv",  "json"};
  allowed.insert(allowed.end(), extra.begin(), extra.end());
  args.check_known(allowed);
  BenchOptions opt;
  opt.full = args.get_bool("full");
  opt.cases = args.get_list("cases", default_cases);
  opt.runs = static_cast<std::size_t>(args.get_int(
      "runs", opt.full ? 100 : static_cast<std::int64_t>(default_runs)));
  opt.scale = args.get_double("scale", opt.full ? 1.0 : default_scale);
  opt.seed = args.get_uint("seed", 1);
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 1));
  opt.csv = args.get_bool("csv");
  opt.json = args.get("json", "");
  return opt;
}

inline Hypergraph make_instance(const std::string& name, double scale) {
  return generate_netlist(preset(name).scaled(scale));
}

inline PartitionProblem make_problem(const Hypergraph& h, double tolerance) {
  PartitionProblem p;
  p.graph = &h;
  p.balance =
      BalanceConstraint::from_tolerance(h.total_vertex_weight(), tolerance);
  return p;
}

/// "Our LIFO FM": the strong implicit-decision combination.
inline FmConfig our_lifo() {
  FmConfig cfg;
  cfg.zero_gain_update = ZeroGainUpdate::kNonzero;
  cfg.insert_order = InsertOrder::kLifo;
  cfg.tie_break = TieBreak::kAway;
  return cfg;
}

/// "Reported LIFO": the weak-testbed model — All-dgain updates, FIFO
/// reinsertion, Part0 bias.
inline FmConfig reported_lifo() {
  FmConfig cfg;
  cfg.zero_gain_update = ZeroGainUpdate::kAll;
  cfg.insert_order = InsertOrder::kFifo;
  cfg.tie_break = TieBreak::kPart0;
  return cfg;
}

/// "Our CLIP": CLIP with the corking fix (oversized cells excluded from
/// the gain structure).
inline FmConfig our_clip() {
  FmConfig cfg = our_lifo();
  cfg.clip = true;
  cfg.exclude_oversized = true;
  return cfg;
}

/// "Reported CLIP": CLIP exactly as published [15] — susceptible to
/// corking on actual-area instances.
inline FmConfig reported_clip() {
  FmConfig cfg = reported_lifo();
  cfg.clip = true;
  cfg.exclude_oversized = false;
  return cfg;
}

/// The bench's Sec. 3.2 multistart regime for one engine: --runs starts
/// from --seed on the --threads budget, k = 2, no V-cycles.
inline EngineSpec multistart_spec(const BenchOptions& opt,
                                  const std::string& engine,
                                  const FmConfig& fm, double tolerance) {
  EngineSpec spec;
  spec.engine = engine;
  spec.tolerance = tolerance;
  spec.starts = opt.runs;
  spec.vcycles = 0;
  spec.seed = opt.seed;
  spec.threads = opt.threads;
  spec.fm = fm;
  return spec;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Append one JSON-lines object per table to `path`: title, thread count,
/// process wall/CPU seconds at emission time, and every row keyed by its
/// column header.  One line per emit keeps the file trivially appendable
/// and diffable across PRs.  A file that cannot be opened, written or
/// closed makes the --json value unusable: std::invalid_argument, which
/// cli_main turns into exit status 1.
inline void emit_json(const TextTable& table, const BenchOptions& opt,
                      const std::string& title) {
  if (opt.json.empty()) return;
  const auto fail = [&](const char* what) {
    throw std::invalid_argument(std::string("cannot ") + what +
                                " --json file " + opt.json + ": " +
                                std::strerror(errno));
  };
  std::FILE* f = std::fopen(opt.json.c_str(), "a");
  if (!f) fail("open");
  const auto [wall, cpu] = bench_elapsed();
  std::fprintf(f,
               "{\"title\":\"%s\",\"threads\":%zu,\"seed\":%llu,"
               "\"scale\":%.4f,\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f,"
               "\"rows\":[",
               json_escape(title).c_str(), opt.threads,
               static_cast<unsigned long long>(opt.seed), opt.scale, wall,
               cpu);
  const auto& header = table.header();
  for (std::size_t r = 0; r < table.data().size(); ++r) {
    const auto& row = table.data()[r];
    std::fprintf(f, "%s{", r == 0 ? "" : ",");
    for (std::size_t c = 0; c < row.size() && c < header.size(); ++c) {
      std::fprintf(f, "%s\"%s\":\"%s\"", c == 0 ? "" : ",",
                   json_escape(header[c]).c_str(),
                   json_escape(row[c]).c_str());
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) fail("write");
}

/// The one table emitter: text/CSV to stdout plus the optional --json
/// sidecar.
inline void emit(const TextTable& table, const BenchOptions& opt,
                 const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("%s\n",
              (opt.csv ? table.to_csv() : table.to_string()).c_str());
  std::fflush(stdout);
  emit_json(table, opt, title);
}

}  // namespace vlsipart::bench
