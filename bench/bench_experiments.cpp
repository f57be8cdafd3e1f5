// One binary for every experiment that run_engine can express: the
// paper's Tables 1, 2, 4 and 5, the Sec. 3.2 BSF and Pareto reports, the
// suite summary, the engine tier and three ablations.
//
//   bench_experiments --experiment NAME|all [common flags] [its flags]
//
// Each experiment is one value of the registry below: a name, an intro
// line, its default cases/runs/scale, the flags it reads beyond the
// bench_common vocabulary, and its tables.  A table is a list of
// labelled rows times cases; a row is one EngineSpec, or one per repeat
// (Tables 4/5) whose numbers the row's cells average.  Every cell is one
// run_engine call per spec, so every answer is audited by
// check_solution.  The bsf and pareto entries hand their rows to
// compare_engines instead and render its report per case.
//
// A flag the selected experiment does not read is a usage error; `all`
// runs every entry at its defaults and accepts only the common
// vocabulary.  A run_engine error prints the cell as n/a, names the row
// and the reason on stderr, and makes the binary exit 1.
//
// The "Reported ..." rows of Table 2 model a weak independent
// implementation as the same engine with the worst implicit decisions
// (bench_common.h).
#include <algorithm>
#include <stdexcept>

#include "bench/bench_common.h"
#include "src/eval/report.h"

using namespace vlsipart;
using namespace vlsipart::bench;

namespace {

enum class Cell : std::uint8_t { kBest, kMinAvg, kAvg, kCpu, kSkip };

const char* cell_name(Cell cell) {
  switch (cell) {
    case Cell::kBest: return "best";
    case Cell::kMinAvg: return "min/avg";
    case Cell::kAvg: return "avg";
    case Cell::kCpu: return "CPU s";
    case Cell::kSkip: return "Skip%";
  }
  return "?";
}

struct Row {
  std::string label;
  /// One run, or one per repeat; the row's cells average over them.
  std::vector<EngineSpec> specs;
};

struct Table {
  std::string title = {};
  std::string label_header = {};  ///< the first column's header
  std::vector<Row> rows = {};
  std::vector<Cell> cells = {};  ///< one column per case and cell
  bool cases_down = false;  ///< print cases as rows, rows as columns
  /// Also emit each row's geometric-mean avg-cut ratio to the first row.
  bool gmean = false;
};

using Report = void (*)(const Hypergraph&, const std::string& case_name,
                        const std::vector<LabeledSpec>&, const BenchOptions&);

struct Experiment {
  std::string name;
  std::string intro;
  std::string cases;
  std::size_t runs;
  double scale;
  std::vector<std::string> flags;  ///< read beyond the common vocabulary
  std::vector<Table> (*tables)(const BenchOptions&, const CliArgs&);
  /// Set for the Sec. 3.2 reports: compare_engines over the first
  /// table's rows, rendered per case.
  Report report = nullptr;
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

std::vector<Table> engine_tier(const BenchOptions& opt, const CliArgs& args) {
  Table table{.title = "Engine tier (" + std::to_string(opt.runs) +
                       " starts; evo amortized)",
              .label_header = "Engine",
              .cells = {Cell::kBest, Cell::kAvg, Cell::kCpu}};
  for (const EngineInfo& info : engine_registry()) {
    EngineSpec spec = multistart_spec(opt, info.name, our_lifo(), 0.10);
    spec.fm.refine_threads =
        static_cast<std::size_t>(args.get_int("refine-threads", 1));
    spec.ml.coarsen.coarsen_threads =
        static_cast<std::size_t>(args.get_int("coarsen-threads", 1));
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

void bsf_report(const Hypergraph& h, const std::string& case_name,
                const std::vector<LabeledSpec>& engines,
                const BenchOptions& opt) {
  ComparisonConfig config;
  config.budgets = {1, 2, 4, 8, 16, 30, 50, 100};
  const ComparisonReport report = compare_engines(h, engines, config);
  std::printf("=== BSF curves, %s (2%% balance, %zu sampled starts)\n\n",
              case_name.c_str(), opt.runs);
  TextTable table({"tau (cpu s)", "starts", "engine", "E[best cut]"});
  for (const EngineReport& e : report.engines) {
    for (const BsfPoint& pt : e.bsf) {
      table.add_row({fmt_fixed(pt.cpu_seconds, 3), std::to_string(pt.starts),
                     e.name, fmt_fixed(pt.expected_cost, 1)});
    }
  }
  emit(table, opt, "BSF data (plot tau vs E[best cut] per engine)");
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

void pareto_report(const Hypergraph& h, const std::string& case_name,
                   const std::vector<LabeledSpec>& engines,
                   const BenchOptions& opt) {
  const ComparisonConfig config;  // budgets 1..16 starts, baseline row 0
  const ComparisonReport report = compare_engines(h, engines, config);
  std::printf("=== Performance points, %s (2%% balance)\n\n",
              case_name.c_str());

  TextTable summary({"engine", "min cut", "avg cut", "stddev", "avg cpu (s)"});
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
        {"suite",
         "Suite summary: avg cut, 2% balance, every ibm preset", all_ibm, 3,
         0.1, {}, suite},
        {"engine_tier",
         "Engine tier: every registry engine, best/avg cut and total CPU, "
         "10% balance",
         first3, 20, 0.3, {"threads", "refine-threads", "coarsen-threads"},
         engine_tier},
        {"bsf", "Best-so-far curves (Sec. 3.2, after Barr et al. [5])",
         first3, 30, 0.35, {"threads"}, bsf, bsf_report},
        {"pareto",
         "Non-dominated frontier, ranking diagram and significance "
         "(Sec. 3.2)",
         "ibm01", 20, 0.35, {"threads"}, pareto, pareto_report},
    };
  }();
  return registry;
}

/// Run one grid table: every (row, case) cell through run_engine.
bool run_table(const std::string& experiment, const Table& table,
               const std::vector<Hypergraph>& graphs, const BenchOptions& opt) {
  struct Numbers {
    double best = 0, min = 0, avg = 0, cpu = 0, skip = 0;
  };
  bool ok = true;
  std::vector<std::vector<std::string>> text(table.rows.size());
  std::vector<std::vector<double>> avg(table.rows.size());
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const Row& row = table.rows[r];
    for (std::size_t c = 0; c < graphs.size(); ++c) {
      Numbers sum;
      std::string error;
      for (const EngineSpec& spec : row.specs) {
        const EngineResult result = run_engine(spec, graphs[c]);
        if (!result.error.empty()) {
          error = result.error;
          break;
        }
        const MultistartResult& m = result.multistart;
        sum.best += static_cast<double>(m.best_cut);
        sum.min += static_cast<double>(m.min_cut());
        sum.avg += m.avg_cut();
        sum.cpu += m.total_cpu_seconds;
        sum.skip += 100.0 * m.update_work.skip_rate();
      }
      if (!error.empty()) {
        std::fprintf(stderr,
                     "bench_experiments --experiment %s: %s, %s on %s: %s\n",
                     experiment.c_str(), table.title.c_str(),
                     row.label.c_str(), opt.cases[c].c_str(), error.c_str());
        ok = false;
        text[r].insert(text[r].end(), table.cells.size(), "n/a");
        avg[r].push_back(0.0);
        continue;
      }
      const auto n = static_cast<double>(row.specs.size());
      const int decimals = row.specs.size() > 1 ? 1 : 0;
      avg[r].push_back(sum.avg / n);
      for (const Cell cell : table.cells) {
        switch (cell) {
          case Cell::kBest:
            text[r].push_back(fmt_fixed(sum.best / n, decimals));
            break;
          case Cell::kMinAvg:
            text[r].push_back(fmt_min_avg(sum.min / n, sum.avg / n));
            break;
          case Cell::kAvg:
            text[r].push_back(fmt_fixed(sum.avg / n, 1));
            break;
          case Cell::kCpu:
            text[r].push_back(fmt_fixed(sum.cpu / n, 3));
            break;
          case Cell::kSkip:
            text[r].push_back(fmt_fixed(sum.skip / n, 1));
            break;
        }
      }
    }
  }

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
    for (std::size_t c = 0; c < graphs.size(); ++c) {
      lines.push_back({opt.cases[c]});
      for (const auto& cells : text) {
        lines.back().insert(lines.back().end(), cells.begin() + c * width,
                            cells.begin() + (c + 1) * width);
      }
    }
  } else {
    for (const auto& name : opt.cases) heads(header, name);
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      lines.push_back({table.rows[r].label});
      lines.back().insert(lines.back().end(), text[r].begin(), text[r].end());
    }
  }
  TextTable out(std::move(header));
  for (auto& line : lines) out.add_row(std::move(line));
  emit(out, opt, table.title);

  if (table.gmean) {
    TextTable gmeans(
        {"engine", "gmean cut ratio vs " + table.rows.front().label});
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      Sample ratios;
      for (std::size_t c = 0; c < graphs.size(); ++c) {
        if (avg[0][c] > 0.0 && avg[r][c] > 0.0) {
          ratios.add(avg[r][c] / avg[0][c]);
        }
      }
      gmeans.add_row(
          {table.rows[r].label, fmt_fixed(ratios.geometric_mean(), 3)});
    }
    emit(gmeans, opt, "Geometric-mean ratios (lower is better)");
  }
  return ok;
}

bool run_experiment(const Experiment& e, const BenchOptions& opt,
                    const CliArgs& args) {
  std::printf("##### %s — %s; scale %.2f, seed %llu\n\n", e.name.c_str(),
              e.intro.c_str(), opt.scale,
              static_cast<unsigned long long>(opt.seed));
  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }
  bool ok = true;
  for (const Table& table : e.tables(opt, args)) {
    if (e.report == nullptr) {
      ok = run_table(e.name, table, graphs, opt) && ok;
      continue;
    }
    std::vector<LabeledSpec> engines;
    for (const Row& row : table.rows) {
      engines.emplace_back(row.label, row.specs.front());
    }
    for (std::size_t c = 0; c < graphs.size(); ++c) {
      try {
        e.report(graphs[c], opt.cases[c], engines, opt);
      } catch (const std::runtime_error& error) {
        std::fprintf(stderr, "bench_experiments --experiment %s on %s: %s\n",
                     e.name.c_str(), opt.cases[c].c_str(), error.what());
        ok = false;
      }
    }
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
