// Regenerates Table 1 of the paper: best/average cuts for four
// partitioner variants (Flat LIFO FM, Flat CLIP FM, ML LIFO FM,
// ML CLIP FM) under the cross-product of two implicit decisions:
//   * zero-delta-gain update policy: All-dgain vs Nonzero
//   * highest-gain-bucket tie-break bias: Away / Part0 / Toward
// on ISPD98-like instances with actual cell areas and 2% balance.
//
// Expected shape: All-dgain can inflate flat-partitioner average cuts by
// startling amounts; the ML engines compress the dynamic range; engine
// strength ordering is ML CLIP > ML LIFO > flat CLIP > flat LIFO.
//
// Paper default: ibm01-03, 100 runs, full sizes (use --full).
#include <memory>

#include "bench/bench_common.h"

using namespace vlsipart;
using namespace vlsipart::bench;

static int run(int argc, char** argv) {
  const BenchOptions opt = parse_options(argc, argv, "ibm01,ibm02,ibm03",
                                         /*default_runs=*/20,
                                         /*default_scale=*/0.5,
                                         {"threads"});

  struct Block {
    const char* title;
    /// Engine id stamped into every row (the --engine spelling vpart
    /// uses), so merged/JSON'd tables stay self-describing.
    const char* engine;
    bool ml;
    bool clip;
  };
  const Block blocks[] = {
      {"Flat LIFO FM", "flat", false, false},
      {"Flat CLIP FM", "clip", false, true},
      {"ML LIFO FM", "ml", true, false},
      {"ML CLIP FM", "ml-clip", true, true},
  };
  const ZeroGainUpdate updates[] = {ZeroGainUpdate::kAll,
                                    ZeroGainUpdate::kNonzero};
  const TieBreak biases[] = {TieBreak::kAway, TieBreak::kPart0,
                             TieBreak::kToward};

  std::vector<Hypergraph> graphs;
  for (const auto& name : opt.cases) {
    graphs.push_back(make_instance(name, opt.scale));
  }

  std::printf(
      "Table 1: min/avg cuts, actual areas, 2%% balance, %zu runs, scale "
      "%.2f\n\n",
      opt.runs, opt.scale);

  for (const Block& block : blocks) {
    std::vector<std::string> header = {"Updates", "Bias"};
    for (const auto& name : opt.cases) header.push_back(name);
    // Fraction of incident-net visits the net-state-aware inner loop
    // resolved without a pin walk, aggregated over the row's instances.
    // Structurally 0 under All-dgain (the skip is gated off there).
    // Appended last so positional consumers of the older columns keep
    // working; keyed consumers (emit_json) pick it up by name.
    header.push_back("Skip%");
    header.push_back("Engine");
    TextTable table(std::move(header));

    for (const ZeroGainUpdate update : updates) {
      for (const TieBreak bias : biases) {
        FmConfig cfg;
        cfg.clip = block.clip;
        cfg.zero_gain_update = update;
        cfg.tie_break = bias;
        // The paper's Table 1 engines predate the corking fix; CLIP runs
        // as published (no oversized exclusion) so the corking-induced
        // degradation is part of what the table shows.
        std::vector<std::string> row = {name_of(update), name_of(bias)};
        UpdateWork row_work;
        for (const Hypergraph& h : graphs) {
          const PartitionProblem problem = make_problem(h, 0.02);
          std::unique_ptr<Bipartitioner> engine;
          if (block.ml) {
            engine = std::make_unique<MlPartitioner>(ml_config(cfg));
          } else {
            engine = std::make_unique<FlatFmPartitioner>(cfg);
          }
          const MultistartResult r =
              run_multistart(problem, *engine, opt.runs, opt.seed, opt.threads);
          row_work.absorb(r.update_work);
          row.push_back(fmt_min_avg(static_cast<double>(r.min_cut()),
                                    r.avg_cut()));
        }
        char skip[32];
        std::snprintf(skip, sizeof(skip), "%.1f", 100.0 * row_work.skip_rate());
        row.push_back(skip);
        row.push_back(block.engine);
        table.add_row(std::move(row));
      }
    }
    emit(table, opt, block.title);
  }
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
