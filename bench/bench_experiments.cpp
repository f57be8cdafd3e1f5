// One binary for every experiment that run_engine can express: the
// paper's Tables 1-5, the Sec. 3.2 BSF, Pareto, pruning and significance
// reports, the suite summary, the engine tier, the fixed-terminal,
// noise and k-way studies and five ablations.
//
//   bench_experiments --experiment NAME|all [common flags] [its flags]
//
// Each experiment is one value of the registry below: a name, an intro
// line, its default cases/runs/scale, the flags it reads beyond the
// bench_common vocabulary, its tables and, where its instances are not
// the --cases presets as generated, the builder of its own cases (a
// label, a graph and fixed vertices each).  A table is a list of
// labelled rows times cases; a row is one EngineSpec, or one per repeat
// (Tables 4/5) whose numbers the row's cells average, and may adapt its
// spec to each case's graph.  Every cell is one run_engine call per
// spec, so every answer is audited by check_solution.  The report
// entries (bsf, pareto, noise, pruning, significance, kway, knobs) hand
// each table and every case to a report instead.
//
// A flag the selected experiment does not read is a usage error; `all`
// runs every entry at its defaults and accepts only the common
// vocabulary.  A run_engine error prints the cell as n/a, names the row
// and the reason on stderr, and makes the binary exit 1.
//
// The "Reported ..." rows of Tables 2 and 3 model a weak independent
// implementation as the same engine with the worst implicit decisions
// (bench_common.h).
#include <algorithm>
#include <functional>
#include <stdexcept>

#include "bench/bench_common.h"
#include "src/eval/report.h"
#include "src/eval/significance.h"

using namespace vlsipart;
using namespace vlsipart::bench;

namespace {

enum class Cell : std::uint8_t {
  kBest,
  kMin,
  kMinAvg,
  kAvg,
  kStddev,
  kCpu,
  kSkip,
  kCorked,
  kStalled
};

const char* cell_name(Cell cell) {
  switch (cell) {
    case Cell::kBest: return "best";
    case Cell::kMin: return "min";
    case Cell::kMinAvg: return "min/avg";
    case Cell::kAvg: return "avg";
    case Cell::kStddev: return "stddev";
    case Cell::kCpu: return "CPU s";
    case Cell::kSkip: return "Skip%";
    case Cell::kCorked: return "corked";
    case Cell::kStalled: return "stalled passes";
  }
  return "?";
}

/// One instance of an experiment: a generated preset by default, or what
/// the experiment's own builder makes (unit-area copies, twins, fixed
/// terminals).
struct Case {
  std::string label;
  Hypergraph graph;
  std::vector<PartId> fixed = {};
};

struct Row {
  std::string label;
  /// One run, or one per repeat; the row's cells average over them.
  std::vector<EngineSpec> specs;
  /// Set when a spec depends on the case: adapts it to the case's graph.
  std::function<void(EngineSpec&, const Hypergraph&)> for_case = {};
};

struct Table {
  std::string title = {};
  std::string label_header = {};  ///< the first column's header
  std::vector<Row> rows = {};
  std::vector<Cell> cells = {};  ///< one column per case and cell
  bool cases_down = false;  ///< print cases as rows, rows as columns
  /// Also emit each row's geometric-mean avg-cut ratio to the first row.
  bool gmean = false;
  /// More views of the same runs, one line per (row, case): a title and
  /// its cells each.
  std::vector<std::pair<std::string, std::vector<Cell>>> listings = {};
  /// knobs only: why the knob stays whatever its verdict (kItem8Note
  /// replaces the verdict); empty when the rule decides.
  std::string note = {};
};

using Report = void (*)(const std::vector<Case>&, const Table&,
                        const BenchOptions&);

struct Experiment {
  std::string name;
  std::string intro;
  std::string cases;
  std::size_t runs;
  double scale;
  std::vector<std::string> flags;  ///< read beyond the common vocabulary
  std::vector<Table> (*tables)(const BenchOptions&, const CliArgs&);
  /// Set for the reports: each table goes to it with every case.
  Report report = nullptr;
  /// Set when the experiment builds its own cases; else one generated
  /// instance per --cases preset.
  std::vector<Case> (*build_cases)(const BenchOptions&,
                                   const CliArgs&) = nullptr;
};

std::string over_starts(const BenchOptions& opt) {
  return " (" + std::to_string(opt.runs) + " starts)";
}

std::vector<Table> table1(const BenchOptions& opt, const CliArgs&) {
  // The paper's Table 1 engines predate the corking fix: CLIP runs as
  // published (flat or ml with fm.clip, not the clip engine), so the
  // corking-induced degradation is part of what the table shows.
  struct Block {
    const char* title;
    const char* engine;
    bool clip;
  };
  const Block blocks[] = {{"Flat LIFO FM", "flat", false},
                          {"Flat CLIP FM", "flat", true},
                          {"ML LIFO FM", "ml", false},
                          {"ML CLIP FM", "ml", true}};
  std::vector<Table> tables;
  for (const Block& block : blocks) {
    // Skip% is the share of incident-net visits the net-state-aware
    // inner loop resolved without a pin walk; 0 under All-dgain.
    Table table{.title = block.title + over_starts(opt),
                .label_header = "Updates/Bias",
                .cells = {Cell::kMinAvg, Cell::kSkip}};
    for (const ZeroGainUpdate update :
         {ZeroGainUpdate::kAll, ZeroGainUpdate::kNonzero}) {
      for (const TieBreak bias :
           {TieBreak::kAway, TieBreak::kPart0, TieBreak::kToward}) {
        FmConfig fm;
        fm.clip = block.clip;
        fm.zero_gain_update = update;
        fm.tie_break = bias;
        table.rows.push_back(
            {std::string(name_of(update)) + "/" + name_of(bias),
             {multistart_spec(opt, block.engine, fm, 0.02)}});
      }
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

std::vector<Table> table2(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "LIFO FM comparison" + over_starts(opt),
              .label_header = "Tolerance/Algorithm",
              .cells = {Cell::kMinAvg}};
  for (const double tol : {0.02, 0.10}) {
    const std::string pct = fmt_fixed(tol * 100.0, 0) + "% ";
    table.rows.push_back(
        {pct + "Reported LIFO",
         {multistart_spec(opt, "flat", reported_lifo(), tol)}});
    table.rows.push_back(
        {pct + "Our LIFO", {multistart_spec(opt, "flat", our_lifo(), tol)}});
  }
  return {table};
}

/// Tables 4/5: the hMetis-1.5-like protocol of Sec. 3.2 — ML multistart
/// configurations with V-cycles on the best, each cell the average best
/// cut and CPU over `--repeats` repetitions of the whole configuration.
std::vector<Table> table45(const BenchOptions& opt, const CliArgs& args,
                           double tolerance, const std::string& name) {
  const auto repeats = static_cast<std::size_t>(
      args.get_int("repeats", opt.full ? 50 : 2));
  std::vector<std::size_t> configs = {1, 2, 4, 8, 16, opt.full ? 100u : 32u};
  if (args.has("configs")) {
    configs.clear();
    for (const auto& s : args.get_list("configs", "")) {
      configs.push_back(static_cast<std::size_t>(std::stoul(s)));
    }
  }
  const auto vcycles = static_cast<std::size_t>(args.get_int("vcycles", 1));
  Table table{.title = name + ": avg best cut / avg CPU over " +
                       std::to_string(repeats) + " repeat(s), " +
                       std::to_string(vcycles) + " V-cycle(s) on best",
              .label_header = "Circuit",
              .cells = {Cell::kBest, Cell::kCpu},
              .cases_down = true};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    Row row{"n=" + std::to_string(configs[c]), {}};
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      EngineSpec spec = multistart_spec(opt, "ml", our_lifo(), tolerance);
      spec.starts = configs[c];
      spec.vcycles = vcycles;
      spec.seed = opt.seed + 1000 * rep + 37 * (c + 1);
      row.specs.push_back(spec);
    }
    table.rows.push_back(std::move(row));
  }
  return {table};
}

std::vector<Table> table4(const BenchOptions& opt, const CliArgs& args) {
  return table45(opt, args, 0.02, "Table 4 (2% balance)");
}

std::vector<Table> table5(const BenchOptions& opt, const CliArgs& args) {
  return table45(opt, args, 0.10, "Table 5 (10% balance)");
}

std::vector<Table> insertion(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "Gain-bucket insertion order" + over_starts(opt),
              .label_header = "Insertion",
              .cells = {Cell::kMinAvg}};
  for (const InsertOrder order :
       {InsertOrder::kLifo, InsertOrder::kFifo, InsertOrder::kRandom}) {
    FmConfig fm = our_lifo();
    fm.insert_order = order;
    table.rows.push_back(
        {name_of(order), {multistart_spec(opt, "flat", fm, 0.02)}});
  }
  return {table};
}

std::vector<Table> lookahead(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "Lookahead depth sweep" + over_starts(opt),
              .label_header = "Lookahead",
              .cells = {Cell::kMinAvg, Cell::kCpu}};
  for (const int depth : {1, 2, 3, 4}) {
    FmConfig fm = our_lifo();
    fm.lookahead_depth = depth;
    table.rows.push_back(
        {depth == 1 ? "off (FM)" : "depth " + std::to_string(depth),
         {multistart_spec(opt, "flat", fm, 0.02)}});
  }
  return {table};
}

std::vector<Table> vcycle(const BenchOptions& opt, const CliArgs&) {
  // run_hmetis_like with 0 V-cycles is run_multistart, so "plain" and
  // "every start" are ml with spec.vcycles = 0.
  EngineSpec plain = multistart_spec(opt, "ml", our_lifo(), 0.02);
  EngineSpec on_best = plain;
  on_best.vcycles = 2;
  EngineSpec every_start = plain;
  every_start.ml.vcycles = 2;
  return {Table{.title = "V-cycle protocol comparison" + over_starts(opt),
                .label_header = "Protocol",
                .rows = {{"plain multistart", {plain}},
                         {"V-cycle best (x2)", {on_best}},
                         {"V-cycle every start (x2)", {every_start}}},
                .cells = {Cell::kBest, Cell::kCpu}}};
}

std::vector<Table> suite(const BenchOptions& opt, const CliArgs&) {
  return {Table{
      .title = "Per-instance average cuts" + over_starts(opt),
      .label_header = "Circuit",
      .rows = {{"flat-LIFO", {multistart_spec(opt, "flat", our_lifo(), 0.02)}},
               {"flat-CLIP", {multistart_spec(opt, "clip", our_lifo(), 0.02)}},
               {"ML-LIFO", {multistart_spec(opt, "ml", our_lifo(), 0.02)}},
               {"ML-CLIP", {multistart_spec(opt, "ml", our_clip(), 0.02)}}},
      .cells = {Cell::kAvg},
      .cases_down = true,
      .gmean = true}};
}

std::vector<Table> engine_tier(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "Engine tier (" + std::to_string(opt.runs) +
                       " starts; evo amortized)",
              .label_header = "Engine",
              .cells = {Cell::kBest, Cell::kAvg, Cell::kCpu}};
  for (const EngineInfo& info : engine_registry()) {
    EngineSpec spec = multistart_spec(opt, info.name, our_lifo(), 0.10);
    // Each evo start is a whole population evolution.
    if (info.kind == EngineKind::kEvo) {
      spec.starts = std::max<std::size_t>(1, opt.runs / 4);
    }
    table.rows.push_back({info.name, {spec}});
  }
  return {table};
}

std::vector<Table> bsf(const BenchOptions& opt, const CliArgs&) {
  return {Table{
      .rows = {
          {"flat-LIFO-FM", {multistart_spec(opt, "flat", our_lifo(), 0.02)}},
          {"flat-CLIP-FM", {multistart_spec(opt, "clip", our_lifo(), 0.02)}},
          {"ML-LIFO-FM", {multistart_spec(opt, "ml", our_lifo(), 0.02)}},
          {"ML-CLIP-FM", {multistart_spec(opt, "ml", our_clip(), 0.02)}}}}};
}

/// A report's engines: each row's label and its first spec.
std::vector<LabeledSpec> labeled_specs(const Table& table) {
  std::vector<LabeledSpec> engines;
  for (const Row& row : table.rows) {
    engines.emplace_back(row.label, row.specs.front());
  }
  return engines;
}

/// compare_engines on one case; its error names the case too.
ComparisonReport compare_on(const Case& c,
                            const std::vector<LabeledSpec>& engines,
                            const ComparisonConfig& config) {
  try {
    return compare_engines(c.graph, engines, config);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(std::string(error.what()) + " on " + c.label);
  }
}

void bsf_report(const std::vector<Case>& cases, const Table& table,
                const BenchOptions& opt) {
  ComparisonConfig config;
  config.budgets = {1, 2, 4, 8, 16, 30, 50, 100};
  for (const Case& c : cases) {
    const ComparisonReport report =
        compare_on(c, labeled_specs(table), config);
    std::printf("=== BSF curves, %s (2%% balance, %zu sampled starts)\n\n",
                c.label.c_str(), opt.runs);
    TextTable table({"tau (cpu s)", "starts", "engine", "E[best cut]"});
    for (const EngineReport& e : report.engines) {
      for (const BsfPoint& pt : e.bsf) {
        table.add_row({fmt_fixed(pt.cpu_seconds, 3),
                       std::to_string(pt.starts), e.name,
                       fmt_fixed(pt.expected_cost, 1)});
      }
    }
    emit(table, opt, "BSF data (plot tau vs E[best cut] per engine)");
  }
}

std::vector<Table> pareto(const BenchOptions& opt, const CliArgs&) {
  return {Table{
      .rows = {
          {"flat-LIFO", {multistart_spec(opt, "flat", our_lifo(), 0.02)}},
          {"flat-CLIP", {multistart_spec(opt, "clip", our_lifo(), 0.02)}},
          {"flat-LIFO-weak",
           {multistart_spec(opt, "flat", reported_lifo(), 0.02)}},
          {"ML-LIFO", {multistart_spec(opt, "ml", our_lifo(), 0.02)}},
          {"ML-CLIP", {multistart_spec(opt, "ml", our_clip(), 0.02)}},
          {"nlevel", {multistart_spec(opt, "nlevel", our_lifo(), 0.02)}},
          {"evo", {multistart_spec(opt, "evo", our_lifo(), 0.02)}}}}};
}

void pareto_report(const std::vector<Case>& cases, const Table& table,
                   const BenchOptions& opt) {
  const ComparisonConfig config;  // budgets 1..16 starts, baseline row 0
  for (const Case& c : cases) {
    const ComparisonReport report =
        compare_on(c, labeled_specs(table), config);
    std::printf("=== Performance points, %s (2%% balance)\n\n",
                c.label.c_str());

    TextTable summary(
        {"engine", "min cut", "avg cut", "stddev", "avg cpu (s)"});
    for (const EngineReport& e : report.engines) {
      summary.add_row({e.name, std::to_string(e.multistart.min_cut()),
                       fmt_fixed(e.multistart.avg_cut(), 1),
                       fmt_fixed(e.multistart.cut_sample().stddev(), 1),
                       fmt_fixed(e.multistart.avg_cpu_seconds(), 4)});
    }
    emit(summary, opt, "Multistart summary");

    const auto points = [](const char* head,
                           const std::vector<PerfPoint>& pts) {
      TextTable table({head, "cpu (s)", "E[best cut]"});
      for (const PerfPoint& p : pts) {
        table.add_row(
            {p.label, fmt_fixed(p.cpu_seconds, 3), fmt_fixed(p.cost, 1)});
      }
      return table;
    };
    emit(points("point", report.points), opt, "All (cost, runtime) points");
    emit(points("frontier point", report.frontier), opt,
         "Non-dominated (Pareto) frontier");

    TextTable rank({"budget (cpu s)", "winner", "E[best cut]"});
    for (const RankingEntry& e : report.ranking) {
      rank.add_row({fmt_fixed(e.budget_cpu_seconds, 3),
                    e.winner.empty() ? "-" : e.winner,
                    e.winner.empty() ? "-" : fmt_fixed(e.winner_cost, 1)});
    }
    emit(rank, opt, "Speed-dependent ranking diagram");

    TextTable significance({"engine", "versus baseline"});
    for (const EngineReport& e : report.engines) {
      if (!e.versus_baseline.empty()) {
        significance.add_row({e.name, e.versus_baseline});
      }
    }
    emit(significance, opt,
         "Significance vs " + report.engines[config.baseline].name);
  }
}

/// Table 3 (Sec. 2.3): CLIP as published vs CLIP with the corking fix,
/// on actual areas and on unit-area copies of the same topology (the
/// MCNC-style setting where corking stays hidden).
std::vector<Table> table3(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "CLIP FM comparison" + over_starts(opt),
              .label_header = "Tolerance/Algorithm",
              .cells = {Cell::kMinAvg},
              .listings = {{"Corking incidence (starts with a zero-move "
                            "pass) and stalled passes",
                            {Cell::kCorked, Cell::kStalled, Cell::kAvg}}}};
  for (const double tol : {0.02, 0.10}) {
    const std::string pct = fmt_fixed(tol * 100.0, 0) + "% ";
    table.rows.push_back(
        {pct + "Reported CLIP",
         {multistart_spec(opt, "flat", reported_clip(), tol)}});
    table.rows.push_back(
        {pct + "Our CLIP", {multistart_spec(opt, "flat", our_clip(), tol)}});
  }
  return {table};
}

Hypergraph unit_area_copy(const Hypergraph& h) {
  HypergraphBuilder b(h.num_vertices());
  std::vector<VertexId> pins;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    const auto span = h.pins(static_cast<EdgeId>(e));
    pins.assign(span.begin(), span.end());
    b.add_edge(pins, h.edge_weight(static_cast<EdgeId>(e)));
  }
  return b.finalize(h.name() + ".unit");
}

/// The presets on actual areas, then their unit-area copies.
std::vector<Case> table3_cases(const BenchOptions& opt, const CliArgs&) {
  std::vector<Case> cases;
  for (const auto& name : opt.cases) {
    cases.push_back({name, make_instance(name, opt.scale)});
  }
  for (std::size_t c = 0, n = cases.size(); c < n; ++c) {
    cases.push_back({cases[c].label + " unit", unit_area_copy(cases[c].graph)});
  }
  return cases;
}

/// Fixed terminals (Sec. 2.1, [9]): "the presence of fixed terminals
/// fundamentally changes the nature of the partitioning problem".
std::vector<Table> fixed_study(const BenchOptions& opt, const CliArgs&) {
  return {Table{.title = "Effect of fixed vertices on solution quality and "
                         "variance" + over_starts(opt),
                .label_header = "Case fixed%",
                .rows = {{"flat LIFO",
                          {multistart_spec(opt, "flat", our_lifo(), 0.02)}}},
                .cells = {Cell::kMin, Cell::kAvg, Cell::kStddev, Cell::kCpu},
                .cases_down = true}};
}

/// Each preset with a fraction of its vertices fixed at the side an ml
/// reference solution gives them.
std::vector<Case> fixed_cases(const BenchOptions& opt, const CliArgs&) {
  std::vector<Case> cases;
  for (const auto& name : opt.cases) {
    const Hypergraph h = make_instance(name, opt.scale);
    EngineSpec reference = multistart_spec(opt, "ml", our_lifo(), 0.02);
    reference.starts = 4;
    reference.seed = opt.seed ^ 0xF15EDULL;
    const EngineResult ref = run_engine(reference, h);
    if (!ref.error.empty()) {
      throw std::runtime_error("ml reference on " + name + ": " + ref.error);
    }
    for (const double fraction : {0.0, 0.05, 0.15, 0.30, 0.50}) {
      std::vector<PartId> fixed(h.num_vertices(), kNoPart);
      Rng pick(opt.seed + 99);
      const auto target = static_cast<std::size_t>(
          fraction * static_cast<double>(h.num_vertices()));
      for (std::size_t count = 0; count < target;) {
        const auto v = static_cast<VertexId>(pick.below(h.num_vertices()));
        if (fixed[v] == kNoPart) {
          fixed[v] = ref.parts[v];
          ++count;
        }
      }
      cases.push_back({name + " " + fmt_fixed(fraction * 100.0, 0), h,
                       std::move(fixed)});
    }
  }
  return cases;
}

/// Randomization noise (Brglez [7], Sec. 3.2): the first row's spread
/// within an instance and across statistically identical twins, and the
/// first row against the second pooled over every twin.
std::vector<Table> noise(const BenchOptions& opt, const CliArgs&) {
  return {Table{
      .rows = {{"CLIP+fix", {multistart_spec(opt, "flat", our_clip(), 0.02)}},
               {"CLIP as published",
                {multistart_spec(opt, "flat", reported_clip(), 0.02)}}}}};
}

/// --instances twins per preset: the generator re-seeded, labelled by
/// the seed.
std::vector<Case> noise_cases(const BenchOptions& opt, const CliArgs& args) {
  const auto instances = static_cast<std::size_t>(args.get_int("instances", 5));
  std::vector<Case> cases;
  for (const auto& name : opt.cases) {
    for (std::size_t i = 0; i < instances; ++i) {
      GenConfig config = preset(name).scaled(opt.scale);
      config.seed = config.seed * 131 + i;
      cases.push_back({std::to_string(config.seed), generate_netlist(config)});
    }
  }
  return cases;
}

void noise_report(const std::vector<Case>& cases, const Table& table,
                  const BenchOptions& opt) {
  const std::vector<LabeledSpec> engines = labeled_specs(table);
  const std::size_t twins = cases.size() / opt.cases.size();
  for (std::size_t p = 0; p < opt.cases.size(); ++p) {
    std::vector<std::string> header = {"instance seed"};
    for (const auto& [label, spec] : engines) {
      header.push_back(label + " avg");
      header.push_back(label + " stddev");
    }
    TextTable table(std::move(header));
    std::vector<Sample> pooled(engines.size());
    Sample instance_means;
    RunningStats within;
    for (std::size_t t = 0; t < twins; ++t) {
      const Case& c = cases[p * twins + t];
      std::vector<std::string> line = {c.label};
      for (std::size_t e = 0; e < engines.size(); ++e) {
        const EngineResult r = run_engine(engines[e].second, c.graph);
        if (!r.error.empty()) {
          throw std::runtime_error(engines[e].first + " on " + c.label +
                                   ": " + r.error);
        }
        const Sample cuts = r.multistart.cut_sample();
        for (const double cut : cuts.values()) pooled[e].add(cut);
        if (e == 0) {
          instance_means.add(cuts.mean());
          within.add(cuts.stddev());
        }
        line.push_back(fmt_fixed(cuts.mean(), 1));
        line.push_back(fmt_fixed(cuts.stddev(), 1));
      }
      table.add_row(std::move(line));
    }
    std::printf("=== Noise decomposition on %s twins (2%% balance, %zu starts "
                "x %zu instances)\n\n",
                opt.cases[p].c_str(), opt.runs, twins);
    emit(table, opt, "Per-instance multistart statistics");

    TextTable components({"component", "value"});
    components.add_row({"between-instance stddev of avg cut",
                        fmt_fixed(instance_means.stddev(), 1)});
    components.add_row({"mean within-instance stddev",
                        fmt_fixed(within.mean(), 1)});
    emit(components, opt, "Variance components");

    std::printf("Effect check (pooled over all twins):\n  %s\n\n",
                describe_comparison(engines[0].first, pooled[0],
                                    engines[1].first, pooled[1])
                    .c_str());
  }
}

/// Start pruning (Sec. 3.2): "pruning (early termination of starts that
/// appear unpromising relative to previous starts) can be applied" — one
/// reason actual CPU time, not the number of starts, is the comparison
/// axis.
std::vector<Table> pruning(const BenchOptions& opt, const CliArgs&) {
  return {Table{.title = "Pruning quality/CPU tradeoff",
                .rows = {{"flat LIFO",
                          {multistart_spec(opt, "flat", our_lifo(), 0.02)}}}}};
}

/// The row unpruned through run_engine, then the serial pruned regime of
/// the same starts at three prune factors.
void pruning_report(const std::vector<Case>& cases, const Table& table,
                    const BenchOptions& opt) {
  const Row& row = table.rows.front();
  const EngineSpec& spec = row.specs.front();
  const std::string of_starts = "/" + std::to_string(spec.starts);
  TextTable out({"case", "variant", "best cut", "avg cut(kept)", "pruned",
                 "total cpu (s)"});
  for (const Case& c : cases) {
    const EngineResult plain = run_engine(spec, c.graph);
    if (!plain.error.empty()) {
      throw std::runtime_error(row.label + " on " + c.label + ": " +
                               plain.error);
    }
    const MultistartResult& m = plain.multistart;
    out.add_row({c.label, "no pruning", std::to_string(m.best_cut),
                 fmt_fixed(m.avg_cut(), 1), "0" + of_starts,
                 fmt_fixed(m.total_cpu_seconds, 3)});
    const PartitionProblem problem = make_problem(c.graph, spec.tolerance);
    for (const double factor : {1.20, 1.10, 1.02}) {
      PruneConfig prune;
      prune.factor = factor;
      const PrunedMultistartResult pruned = run_multistart_pruned(
          problem, spec.fm, spec.starts, spec.seed, prune);
      RunningStats kept;
      for (const StartRecord& start : pruned.result.starts) {
        if (start.feasible) kept.add(static_cast<double>(start.cut));
      }
      out.add_row({c.label, "prune @" + fmt_fixed(factor, 2),
                   std::to_string(pruned.result.best_cut),
                   fmt_fixed(kept.mean(), 1),
                   std::to_string(pruned.pruned_starts) + of_starts,
                   fmt_fixed(pruned.result.total_cpu_seconds, 3)});
    }
  }
  emit(out, opt, table.title);
}

/// Significance (Brglez [7], Sec. 3.2): "which improvements are due to
/// improved heuristic and which are merely due to chance?"  One table
/// per question: two flat FM configurations differing in ONE implicit
/// decision ("Don't change two things at once" [19]), question i on seed
/// --seed + i.
std::vector<Table> significance(const BenchOptions& opt, const CliArgs&) {
  const FmConfig base = our_lifo();
  FmConfig all_dgain = base;
  all_dgain.zero_gain_update = ZeroGainUpdate::kAll;
  FmConfig fifo = base;
  fifo.insert_order = InsertOrder::kFifo;
  FmConfig toward = base;
  toward.tie_break = TieBreak::kToward;
  const FmConfig clip = our_clip();
  FmConfig clip_cork = clip;
  clip_cork.exclude_oversized = false;
  struct Question {
    const char* title;
    const char* label_a;
    FmConfig a;
    const char* label_b;
    FmConfig b;
  };
  const Question questions[] = {
      {"Does skipping zero-delta-gain updates matter?", "Nonzero", base,
       "All-dgain", all_dgain},
      {"Does LIFO beat FIFO bucket insertion [21]?", "LIFO", base, "FIFO",
       fifo},
      {"Does the tie-break bias matter?", "Away", base, "Toward", toward},
      {"Does CLIP [15] beat plain FM?", "CLIP+fix", clip, "FM", base},
      {"Does the corking fix matter for CLIP?", "CLIP+fix", clip,
       "CLIP as published", clip_cork},
  };
  std::vector<Table> tables;
  std::uint64_t seed = opt.seed;
  for (const Question& q : questions) {
    EngineSpec a = multistart_spec(opt, "flat", q.a, 0.02);
    a.seed = seed++;
    EngineSpec b = a;
    b.fm = q.b;
    tables.push_back(
        Table{.title = q.title, .rows = {{q.label_a, {a}}, {q.label_b, {b}}}});
  }
  return tables;
}

/// A question's verdict on each case: its first row against the second,
/// the baseline.  One emitted record per (case, question).
void significance_report(const std::vector<Case>& cases, const Table& table,
                         const BenchOptions& opt) {
  ComparisonConfig config;
  config.baseline = 1;
  for (const Case& c : cases) {
    const ComparisonReport report =
        compare_on(c, labeled_specs(table), config);
    TextTable verdict({"case", "verdict"});
    verdict.add_row({c.label, report.engines[0].versus_baseline});
    emit(verdict, opt, table.title);
  }
}

/// Initial-solution generator (Hauck-Borriello [20], Sec. 2.2): each
/// scheme per start of flat FM and per coarsest-level try of ml.
std::vector<Table> initial(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "Initial solution generator" + over_starts(opt),
              .label_header = "Engine/initial",
              .cells = {Cell::kMinAvg, Cell::kCpu}};
  for (const auto& [engine, label] :
       {std::pair{"flat", "flat FM/"}, std::pair{"ml", "ML coarsest/"}}) {
    for (const InitialScheme scheme : {InitialScheme::kRandom,
                                       InitialScheme::kBfs,
                                       InitialScheme::kMixed}) {
      FmConfig fm = our_lifo();
      fm.initial_scheme = scheme;
      table.rows.push_back({std::string(label) + name_of(scheme),
                            {multistart_spec(opt, engine, fm, 0.02)}});
    }
  }
  return {table};
}

/// Clustering (Sec. 4: "the effects of clustering in multilevel FM" are
/// a named gap): the coarsening knobs of the ml engine, one sweep each.
std::vector<Table> clustering(const BenchOptions& opt, const CliArgs&) {
  const auto sweep = [&](const std::string& title) {
    return Table{.title = title + over_starts(opt),
                 .label_header = "Setting",
                 .cells = {Cell::kAvg, Cell::kCpu}};
  };
  const EngineSpec base = multistart_spec(opt, "ml", our_lifo(), 0.02);
  std::vector<Table> tables = {sweep("Coarsest-level target size"),
                               sweep("Maximum cluster weight"),
                               sweep("Heavy-edge rating net-size cap")};
  for (const std::size_t target : {40, 120, 400, 1200}) {
    EngineSpec spec = base;
    spec.ml.coarsen.coarsen_to = target;
    tables[0].rows.push_back({"coarsen_to=" + std::to_string(target), {spec}});
  }
  // The cap is instance-relative: total weight / divisor, at least the
  // heaviest vertex.
  for (const Weight divisor : {400, 120, 30, 8}) {
    tables[1].rows.push_back(
        {"cap=total/" + std::to_string(divisor),
         {base},
         [divisor](EngineSpec& spec, const Hypergraph& h) {
           spec.ml.coarsen.max_cluster_weight = std::max<Weight>(
               h.max_vertex_weight(), h.total_vertex_weight() / divisor);
         }});
  }
  for (const std::size_t cap : {8, 64, 512}) {
    EngineSpec spec = base;
    spec.ml.coarsen.max_rated_net_size = cap;
    tables[2].rows.push_back({"rate nets <= " + std::to_string(cap), {spec}});
  }
  return tables;
}

/// k-way partitioning (Sec. 4 names "the difficulty of multi-way
/// partitioning" a fundamental gap): ml recursive bisection, one row per
/// k, 10% per-part tolerance.
std::vector<Table> kway(const BenchOptions& opt, const CliArgs&) {
  Table table{.title = "k-way: recursive bisection and the direct k-way "
                       "polish, 10% tolerance"};
  for (const std::size_t k : {4, 8, 16}) {
    EngineSpec spec = multistart_spec(opt, "ml", our_lifo(), 0.10);
    spec.k = k;
    table.rows.push_back({"k=" + std::to_string(k), {spec}});
  }
  return {table};
}

/// Per case and row: the served answer (run_engine: recursive bisection,
/// then the direct k-way polish) with its CPU, the unpolished RB cut of
/// the same kway_config, and the share of that cut the polish recovers.
void kway_report(const std::vector<Case>& cases, const Table& table,
                 const BenchOptions& opt) {
  TextTable out({"case", "k", "served cut", "CPU s", "RB cut", "recovered"});
  for (const Case& c : cases) {
    for (const Row& row : table.rows) {
      const EngineSpec& spec = row.specs.front();
      const CpuTimer timer;
      const EngineResult served = run_engine(spec, c.graph);
      const double cpu = timer.elapsed();
      if (!served.error.empty()) {
        throw std::runtime_error(row.label + " on " + c.label + ": " +
                                 served.error);
      }
      KwayConfig unpolished = kway_config(spec);
      unpolished.refine_passes = 0;
      const Weight rb_cut = recursive_bisection(c.graph, unpolished).cut;
      const double recovered =
          rb_cut > 0 ? 100.0 * static_cast<double>(rb_cut - served.cut) /
                           static_cast<double>(rb_cut)
                     : 0.0;
      out.add_row({c.label, std::to_string(spec.k), std::to_string(served.cut),
                   fmt_fixed(cpu, 3), std::to_string(rb_cut),
                   fmt_fixed(recovered, 1) + "%"});
    }
  }
  emit(out, opt, table.title);
}

/// Mann-Whitney p-values as printed: three decimals, or two significant
/// digits below 0.001.
std::string fmt_p(double p) {
  if (p >= 0.001) return fmt_fixed(p, 3);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1e", p);
  return buf;
}

/// The knobs note of the coarsening rows, which wait for ROADMAP item 8:
/// measured, with no verdict.
const char* const kItem8Note = "item 8 (coarsening), no verdict";

/// The knob audit: one table per engine knob that only vpart sets, its
/// default row first, then each alternative, all on one engine at 2%
/// balance.  The rule is fixed before measuring (knobs_report).  The
/// knobs it condemned are constants now, so only the knobs that stay
/// have tables; EXPERIMENTS.md keeps the verdicts of all of them.
std::vector<Table> knobs(const BenchOptions& opt, const CliArgs&) {
  const auto row = [&](const char* engine, const std::string& label,
                       const std::function<void(EngineSpec&)>& set) {
    EngineSpec spec = multistart_spec(opt, engine, our_lifo(), 0.02);
    set(spec);
    return Row{label, {spec}};
  };
  const auto knob = [](const std::string& field, const char* engine,
                       std::vector<Row> rows, const std::string& note = "") {
    return Table{.title = field + " on " + engine,
                 .label_header = "alternative",
                 .rows = std::move(rows),
                 .note = note};
  };
  const auto unchanged = [](EngineSpec&) {};
  const std::string sec23 = "a Sec. 2.3 decision";

  std::vector<Table> tables;
  tables.push_back(knob(
      "NlevelConfig::initial_tries", "nlevel",
      {row("nlevel", "default 8", unchanged),
       row("nlevel", "2", [](EngineSpec& s) { s.nlevel.initial_tries = 2; }),
       row("nlevel", "16",
           [](EngineSpec& s) { s.nlevel.initial_tries = 16; })}));
  tables.push_back(knob(
      "NlevelConfig::local_moves_past_best", "nlevel",
      {row("nlevel", "default 16", unchanged),
       row("nlevel", "4",
           [](EngineSpec& s) { s.nlevel.local_moves_past_best = 4; }),
       row("nlevel", "64",
           [](EngineSpec& s) { s.nlevel.local_moves_past_best = 64; })}));
  for (const char* engine : {"flat", "clip", "ml"}) {
    tables.push_back(knob(
        "FmConfig::illegal_head", engine,
        {row(engine, "default bucket", unchanged),
         row(engine, "side",
             [](EngineSpec& s) {
               s.fm.illegal_head = IllegalHeadPolicy::kSkipSide;
             })},
        sec23));
  }
  for (const char* engine : {"flat", "clip"}) {
    tables.push_back(knob(
        "FmConfig::look_beyond_first", engine,
        {row(engine, "default off", unchanged),
         row(engine, "on",
             [](EngineSpec& s) { s.fm.look_beyond_first = true; })},
        sec23));
  }
  tables.push_back(knob(
      "CoarsenConfig::min_reduction", "ml",
      {row("ml", "default 0.95", unchanged),
       row("ml", "0.90",
           [](EngineSpec& s) { s.ml.coarsen.min_reduction = 0.90; }),
       row("ml", "0.99",
           [](EngineSpec& s) { s.ml.coarsen.min_reduction = 0.99; })},
      kItem8Note));
  tables.push_back(knob(
      "NlevelConfig::coarsen_to", "nlevel",
      {row("nlevel", "default 96", unchanged),
       row("nlevel", "40", [](EngineSpec& s) { s.nlevel.coarsen_to = 40; }),
       row("nlevel", "400",
           [](EngineSpec& s) { s.nlevel.coarsen_to = 400; })},
      kItem8Note));
  // The cap is instance-relative, as in the clustering sweep.
  Table cap = knob("NlevelConfig::max_cluster_weight", "nlevel",
                   {row("nlevel", "default derived", unchanged)}, kItem8Note);
  for (const Weight divisor : {400, 30}) {
    Row r = row("nlevel", "total/" + std::to_string(divisor), unchanged);
    r.for_case = [divisor](EngineSpec& spec, const Hypergraph& h) {
      spec.nlevel.max_cluster_weight = std::max<Weight>(
          h.max_vertex_weight(), h.total_vertex_weight() / divisor);
    };
    cap.rows.push_back(std::move(r));
  }
  tables.push_back(std::move(cap));
  return tables;
}

/// One knob's verdict.  On each case, compare_engines runs every row;
/// each (alternative, case) pair gets its mean cut against the
/// default's, its CPU per start over the default's, and the two-sided
/// Mann-Whitney p of its per-start cuts against the default's, Holm-
/// adjusted over every pair of the table.  An alternative earns the
/// knob on a case when its mean cut is lower and its adjusted p is
/// below 0.05; CPU is reported but keeps no knob.  A knob no
/// alternative earns is a constant at its default.
void knobs_report(const std::vector<Case>& cases, const Table& table,
                  const BenchOptions& opt) {
  struct Pair {
    std::size_t row;
    std::string label;
    double mean, default_mean, cpu_ratio, p;
  };
  std::vector<Pair> pairs;
  for (const Case& c : cases) {
    std::vector<LabeledSpec> engines;
    for (const Row& row : table.rows) {
      EngineSpec spec = row.specs.front();
      if (row.for_case) row.for_case(spec, c.graph);
      engines.emplace_back(row.label, spec);
    }
    const ComparisonReport report = compare_on(c, engines, {});
    const MultistartResult& base = report.engines.front().multistart;
    for (std::size_t r = 1; r < report.engines.size(); ++r) {
      const MultistartResult& m = report.engines[r].multistart;
      const double base_cpu = base.avg_cpu_seconds();
      pairs.push_back(
          {r, c.label, m.avg_cut(), base.avg_cut(),
           base_cpu > 0.0 ? m.avg_cpu_seconds() / base_cpu : 0.0,
           mann_whitney_u(m.cut_sample(), base.cut_sample()).p_value});
    }
  }
  std::vector<double> p_values;
  for (const Pair& pair : pairs) p_values.push_back(pair.p);
  const std::vector<double> adjusted = holm_adjust(p_values);

  const bool no_verdict = table.note == kItem8Note;
  TextTable out({"alternative", "case", "mean cut", "default mean cut",
                 "CPU ratio", "p", "p Holm", "earns"});
  std::string earned;
  for (std::size_t r = 1; r < table.rows.size(); ++r) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const Pair& pair = pairs[i];
      if (pair.row != r) continue;
      const bool earns =
          pair.mean < pair.default_mean && adjusted[i] < 0.05;
      if (earns) {
        earned += (earned.empty() ? "" : ", ") + table.rows[r].label +
                  " on " + pair.label;
      }
      out.add_row({table.rows[r].label, pair.label, fmt_fixed(pair.mean, 1),
                   fmt_fixed(pair.default_mean, 1),
                   fmt_fixed(pair.cpu_ratio, 2), fmt_p(pair.p),
                   fmt_p(adjusted[i]),
                   no_verdict ? "-" : (earns ? "yes" : "no")});
    }
  }
  emit(out, opt, table.title);

  std::string verdict =
      earned.empty() ? "no alternative earns it" : "earned by " + earned;
  if (no_verdict) {
    verdict = table.note;
  } else if (!table.note.empty()) {
    verdict += "; kept: " + table.note;
  } else {
    verdict += earned.empty() ? "; a constant" : "; kept";
  }
  TextTable line({"knob", "verdict"});
  line.add_row({table.title, verdict});
  emit(line, opt, table.title + ": verdict");
}

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> registry = [] {
    const std::string first3 = "ibm01,ibm02,ibm03";
    std::string all_ibm;
    for (const auto& name : ibm_preset_names()) {
      all_ibm += (all_ibm.empty() ? "" : ",") + name;
    }
    const std::string table45_cases =
        "ibm01,ibm02,ibm03,ibm04,ibm05,ibm06,ibm10,ibm14,ibm18";
    const std::vector<std::string> table45_flags = {"threads", "repeats",
                                                    "configs", "vcycles"};
    return std::vector<Experiment>{
        {"table1",
         "Table 1: min/avg cuts under two implicit decisions, actual areas, "
         "2% balance",
         first3, 20, 0.5, {"threads"}, table1},
        {"table2",
         "Table 2: LIFO FM, weak-implementation model vs ours; min/avg",
         first3, 20, 0.5, {"threads"}, table2},
        {"table3",
         "Table 3: CLIP FM as published vs with the corking fix (Sec. 2.3); "
         "min/avg, corking incidence on actual and unit areas",
         first3, 20, 0.5, {"threads"}, table3, nullptr, table3_cases},
        {"table4",
         "Table 4: hMetis-1.5-like ML, 2% balance, configurations of n "
         "starts with V-cycles on the best",
         table45_cases, 1, 0.2, table45_flags, table4},
        {"table5",
         "Table 5: hMetis-1.5-like ML, 10% balance, configurations of n "
         "starts with V-cycles on the best",
         table45_cases, 1, 0.2, table45_flags, table5},
        {"insertion",
         "Insertion-order ablation [21]: flat FM, 2% balance, min/avg",
         first3, 20, 0.5, {}, insertion},
        {"lookahead",
         "Krishnamurthy lookahead ablation [30]: flat FM, 2% balance, "
         "min/avg and total CPU",
         first3, 20, 0.5, {}, lookahead},
        {"vcycle",
         "V-cycling ablation (Sec. 3.2): ML LIFO FM, 2% balance, best cut "
         "and total CPU",
         first3, 8, 0.5, {}, vcycle},
        {"clustering",
         "Clustering ablation (Sec. 4 open question): ML LIFO FM, 2% "
         "balance, avg cut and total CPU",
         first3, 10, 0.5, {"threads"}, clustering},
        {"initial",
         "Initial-solution ablation [20]: flat FM per start and ML at its "
         "coarsest level, 2% balance, min/avg and total CPU",
         first3, 20, 0.5, {"threads"}, initial},
        {"suite",
         "Suite summary: avg cut, 2% balance, every ibm preset", all_ibm, 3,
         0.1, {}, suite},
        {"engine_tier",
         "Engine tier: every registry engine, best/avg cut and total CPU, "
         "10% balance",
         first3, 20, 0.3, {"threads"}, engine_tier},
        {"bsf", "Best-so-far curves (Sec. 3.2, after Barr et al. [5])",
         first3, 30, 0.35, {"threads"}, bsf, bsf_report},
        {"pareto",
         "Non-dominated frontier, ranking diagram and significance "
         "(Sec. 3.2)",
         "ibm01", 20, 0.35, {"threads"}, pareto, pareto_report},
        {"pruning",
         "Start-pruning ablation (Sec. 3.2): flat LIFO FM, 2% balance, "
         "pruned starts run serially",
         first3, 20, 0.5, {}, pruning, pruning_report},
        {"significance",
         "Significance of one implicit decision at a time (Brglez [7], "
         "Sec. 3.2): Welch and Mann-Whitney at alpha 0.05; NOT significant "
         "means the gap is within run-to-run noise",
         "ibm01", 30, 0.5, {"threads"}, significance, significance_report},
        {"fixed",
         "Fixed-terminal study [9]: flat LIFO FM, 2% balance, a fraction "
         "of the vertices fixed at the sides of an ml reference solution",
         first3, 20, 0.5, {"threads"}, fixed_study, nullptr, fixed_cases},
        {"noise",
         "Randomization-noise decomposition (Brglez [7], Sec. 3.2): CLIP "
         "with and without the corking fix on re-seeded generator twins",
         "ibm01", 20, 0.5, {"threads", "instances"}, noise, noise_report,
         noise_cases},
        {"kway",
         "k-way study (Sec. 4): ml recursive bisection at k = 4, 8, 16, "
         "the served cut against the unpolished RB cut; --runs starts per "
         "bisection",
         first3, 2, 0.5, {}, kway, kway_report},
        {"knobs",
         "Knob audit: every engine knob only vpart sets against its "
         "alternatives, 2% balance; an alternative earns its knob with a "
         "lower mean cut at Holm-adjusted Mann-Whitney p < 0.05",
         first3, 20, 0.3, {"threads"}, knobs, knobs_report},
    };
  }();
  return registry;
}

/// The numbers of one (row, case) cell, summed over the row's specs.
struct Numbers {
  double best = 0, min = 0, avg = 0, stddev = 0, cpu = 0, skip = 0;
  std::size_t corked = 0, starts = 0, stalled = 0;
  std::size_t runs = 0;
  std::string error;
};

std::string cell_text(const Numbers& sum, Cell cell) {
  const auto n = static_cast<double>(sum.runs);
  const int decimals = sum.runs > 1 ? 1 : 0;
  switch (cell) {
    case Cell::kBest: return fmt_fixed(sum.best / n, decimals);
    case Cell::kMin: return fmt_fixed(sum.min / n, decimals);
    case Cell::kMinAvg: return fmt_min_avg(sum.min / n, sum.avg / n);
    case Cell::kAvg: return fmt_fixed(sum.avg / n, 1);
    case Cell::kStddev: return fmt_fixed(sum.stddev / n, 1);
    case Cell::kCpu: return fmt_fixed(sum.cpu / n, 3);
    case Cell::kSkip: return fmt_fixed(sum.skip / n, 1);
    case Cell::kCorked:
      return std::to_string(sum.corked) + "/" + std::to_string(sum.starts);
    case Cell::kStalled:
      return fmt_fixed(static_cast<double>(sum.stalled) / n, decimals);
  }
  return "?";
}

Numbers run_cell(const Row& row, const Case& c) {
  Numbers sum;
  for (EngineSpec spec : row.specs) {
    if (row.for_case) row.for_case(spec, c.graph);
    const EngineResult result = run_engine(spec, c.graph, c.fixed);
    if (!result.error.empty()) {
      sum.error = result.error;
      return sum;
    }
    const MultistartResult& m = result.multistart;
    sum.best += static_cast<double>(m.best_cut);
    sum.min += static_cast<double>(m.min_cut());
    sum.avg += m.avg_cut();
    sum.stddev += m.cut_sample().stddev();
    sum.cpu += m.total_cpu_seconds;
    sum.skip += 100.0 * m.update_work.skip_rate();
    sum.stalled += m.update_work.stalled_passes;
    for (const StartRecord& start : m.starts) {
      if (start.work.zero_move_passes > 0) ++sum.corked;
    }
    sum.starts += m.starts.size();
    ++sum.runs;
  }
  return sum;
}

/// Run one grid table: every (row, case) cell through run_engine.
bool run_table(const std::string& experiment, const Table& table,
               const std::vector<Case>& cases, const BenchOptions& opt) {
  bool ok = true;
  std::vector<std::vector<Numbers>> grid(table.rows.size());
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    for (const Case& c : cases) {
      grid[r].push_back(run_cell(table.rows[r], c));
      if (!grid[r].back().error.empty()) {
        std::fprintf(stderr,
                     "bench_experiments --experiment %s: %s, %s on %s: %s\n",
                     experiment.c_str(), table.title.c_str(),
                     table.rows[r].label.c_str(), c.label.c_str(),
                     grid[r].back().error.c_str());
        ok = false;
      }
    }
  }
  const auto texts = [&](const Numbers& sum, const std::vector<Cell>& cells,
                         std::vector<std::string>& line) {
    for (const Cell cell : cells) {
      line.push_back(sum.error.empty() ? cell_text(sum, cell) : "n/a");
    }
  };

  const std::size_t width = table.cells.size();
  const auto heads = [&](std::vector<std::string>& header,
                         const std::string& name) {
    for (const Cell cell : table.cells) {
      header.push_back(width == 1 ? name : name + " " + cell_name(cell));
    }
  };
  std::vector<std::string> header = {table.label_header};
  std::vector<std::vector<std::string>> lines;
  if (table.cases_down) {
    for (const Row& row : table.rows) heads(header, row.label);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      lines.push_back({cases[c].label});
      for (const auto& cells : grid) texts(cells[c], table.cells, lines.back());
    }
  } else {
    for (const Case& c : cases) heads(header, c.label);
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      lines.push_back({table.rows[r].label});
      for (const Numbers& sum : grid[r]) texts(sum, table.cells, lines.back());
    }
  }
  TextTable out(std::move(header));
  for (auto& line : lines) out.add_row(std::move(line));
  emit(out, opt, table.title);

  for (const auto& [title, cells] : table.listings) {
    std::vector<std::string> listing_header = {table.label_header, "case"};
    for (const Cell cell : cells) listing_header.emplace_back(cell_name(cell));
    TextTable listing(std::move(listing_header));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      for (std::size_t c = 0; c < cases.size(); ++c) {
        std::vector<std::string> line = {table.rows[r].label, cases[c].label};
        texts(grid[r][c], cells, line);
        listing.add_row(std::move(line));
      }
    }
    emit(listing, opt, title);
  }

  if (table.gmean) {
    TextTable gmeans(
        {"engine", "gmean cut ratio vs " + table.rows.front().label});
    const auto avg = [](const Numbers& sum) {
      return sum.error.empty() ? sum.avg / static_cast<double>(sum.runs) : 0.0;
    };
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      Sample ratios;
      for (std::size_t c = 0; c < cases.size(); ++c) {
        if (avg(grid[0][c]) > 0.0 && avg(grid[r][c]) > 0.0) {
          ratios.add(avg(grid[r][c]) / avg(grid[0][c]));
        }
      }
      gmeans.add_row(
          {table.rows[r].label, fmt_fixed(ratios.geometric_mean(), 3)});
    }
    emit(gmeans, opt, "Geometric-mean ratios (lower is better)");
  }
  return ok;
}

std::vector<Case> preset_cases(const BenchOptions& opt, const CliArgs&) {
  std::vector<Case> cases;
  for (const auto& name : opt.cases) {
    cases.push_back({name, make_instance(name, opt.scale)});
  }
  return cases;
}

bool run_experiment(const Experiment& e, const BenchOptions& opt,
                    const CliArgs& args) {
  std::printf("##### %s — %s; scale %.2f, seed %llu\n\n", e.name.c_str(),
              e.intro.c_str(), opt.scale,
              static_cast<unsigned long long>(opt.seed));
  bool ok = true;
  try {
    const std::vector<Case> cases =
        (e.build_cases != nullptr ? e.build_cases : preset_cases)(opt, args);
    for (const Table& table : e.tables(opt, args)) {
      if (e.report == nullptr) {
        ok = run_table(e.name, table, cases, opt) && ok;
        continue;
      }
      e.report(cases, table, opt);
    }
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "bench_experiments --experiment %s: %s\n",
                 e.name.c_str(), error.what());
    ok = false;
  }
  return ok;
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string name = args.get("experiment", "");
  std::vector<const Experiment*> selected;
  std::vector<std::string> names;
  for (const Experiment& e : experiments()) {
    names.push_back(e.name);
    if (name == "all" || name == e.name) selected.push_back(&e);
  }
  if (selected.empty()) {
    // A stray flag is named first, then the missing or unknown name.
    parse_options(argc, argv, "", 1, 1.0, {"experiment"});
    names.emplace_back("all");
    if (name.empty()) {
      std::string list;
      for (const auto& n : names) list += (list.empty() ? "" : "|") + n;
      throw std::invalid_argument("--experiment " + list + " is required");
    }
    CliArgs::check_known_value("experiment", name, names);
  }
  bool ok = true;
  for (const Experiment* e : selected) {
    std::vector<std::string> flags = {"experiment"};
    if (name != "all") {
      flags.insert(flags.end(), e->flags.begin(), e->flags.end());
    }
    const BenchOptions opt =
        parse_options(argc, argv, e->cases, e->runs, e->scale, flags);
    ok = run_experiment(*e, opt, args) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return cli_main(argc, argv, run); }
