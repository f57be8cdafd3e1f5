// Methodology study: "which improvements are due to improved heuristic
// and which are merely due to chance?" (Brglez [7], cited in Sec. 3.2).
//
// Runs two FM configurations differing in ONE implicit decision on the
// same instance ("Don't change two things at once" [19]) as a two-engine
// compare_engines report, and applies its Welch and Mann-Whitney
// significance tests — the statistical discipline the paper asks the
// community to adopt before claiming an improvement.
//
// Usage:
//   methodology_study [--case ibm01] [--scale 0.5] [--runs 30]
//                     [--tolerance 0.02] [--seed 1] [--alpha 0.05]
#include <cstdio>

#include "src/eval/report.h"
#include "src/gen/netlist_gen.h"
#include "src/util/cli.h"

using namespace vlsipart;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.check_known({"alpha", "case", "runs", "scale", "seed", "tolerance"});
  const std::string case_name = args.get("case", "ibm01");
  const double scale = args.get_double("scale", 0.5);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 30));
  const double tolerance = args.get_double("tolerance", 0.02);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double alpha = args.get_double("alpha", 0.05);

  const Hypergraph h = generate_netlist(preset(case_name).scaled(scale));

  std::printf(
      "Methodology study on %s (%zu vertices), %zu runs per config, "
      "alpha=%.2f\n"
      "One implicit decision varies per experiment; everything else "
      "fixed.\n\n",
      h.name().c_str(), h.num_vertices(), runs, alpha);

  struct Experiment {
    const char* question;
    const char* label_a;
    FmConfig a;
    const char* label_b;
    FmConfig b;
  };
  FmConfig base;  // LIFO, Nonzero, Away — the strong combination

  FmConfig all_dgain = base;
  all_dgain.zero_gain_update = ZeroGainUpdate::kAll;
  FmConfig fifo = base;
  fifo.insert_order = InsertOrder::kFifo;
  FmConfig toward = base;
  toward.tie_break = TieBreak::kToward;
  FmConfig clip = base;
  clip.clip = true;
  clip.exclude_oversized = true;
  FmConfig clip_cork = clip;
  clip_cork.exclude_oversized = false;

  const Experiment experiments[] = {
      {"Does skipping zero-delta-gain updates matter?", "Nonzero", base,
       "All-dgain", all_dgain},
      {"Does LIFO beat FIFO bucket insertion [21]?", "LIFO", base, "FIFO",
       fifo},
      {"Does the tie-break bias matter?", "Away", base, "Toward", toward},
      {"Does CLIP [15] beat plain FM?", "CLIP+fix", clip, "FM", base},
      {"Does the corking fix matter for CLIP?", "CLIP+fix", clip,
       "CLIP as published", clip_cork},
  };

  // Each experiment is a two-engine report on its own seed; with B as
  // the baseline, A's verdict reads "A vs B".
  ComparisonConfig config;
  config.baseline = 1;
  config.alpha = alpha;
  std::uint64_t experiment_seed = seed;
  for (const Experiment& e : experiments) {
    EngineSpec spec;
    spec.engine = "flat";
    spec.tolerance = tolerance;
    spec.starts = runs;
    spec.vcycles = 0;
    spec.seed = experiment_seed++;
    EngineSpec a = spec;
    a.fm = e.a;
    EngineSpec b = spec;
    b.fm = e.b;
    const ComparisonReport report =
        compare_engines(h, {{e.label_a, a}, {e.label_b, b}}, config);
    std::printf("* %s\n  %s\n\n", e.question,
                report.engines[0].versus_baseline.c_str());
  }

  std::printf(
      "Reading: a \"NOT significant\" verdict means the observed gap is "
      "within run-to-run noise at this sample size — exactly the kind of "
      "difference the paper warns against reporting as an improvement.\n");
  return 0;
}

int main(int argc, char** argv) {
  return cli_main(argc, argv, run);
}
