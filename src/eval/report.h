// Structured multi-engine comparison reports.
//
// Bundles the paper's whole reporting prescription (Sec. 3.2) into one
// call: run every engine through run_engine under an identical multistart
// regime, then compute
//   * the per-engine multistart record (min/avg/stddev/CPU),
//   * expected best-so-far curves,
//   * the non-dominated (cost, runtime) frontier and the speed-dependent
//     ranking diagram over log-spaced CPU budgets,
//   * pairwise significance tests against a chosen baseline.
// This is what a paper's "comparison section" should compute — wired up
// so downstream users cannot accidentally compare on number-of-starts
// instead of CPU time.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/eval/bsf.h"
#include "src/eval/pareto.h"
#include "src/eval/significance.h"
#include "src/part/engine.h"

namespace vlsipart {

struct ComparisonConfig {
  /// Multistart budgets (in starts) for BSF/frontier points; budgets
  /// beyond the sampled starts are skipped.
  std::vector<std::size_t> budgets = {1, 2, 4, 8, 16};
  /// Index (into the engines vector) of the significance baseline.
  std::size_t baseline = 0;
  double alpha = 0.05;
};

/// A report row: its label and the run it stands for.
using LabeledSpec = std::pair<std::string, EngineSpec>;

struct EngineReport {
  std::string name;
  MultistartResult multistart;
  std::vector<BsfPoint> bsf;
  /// Welch/Mann-Whitney comparison against the baseline engine
  /// (empty string for the baseline itself).
  std::string versus_baseline;
};

struct ComparisonReport {
  std::vector<EngineReport> engines;
  /// Every engine's BSF points, labelled "<name>@<starts>".
  std::vector<PerfPoint> points;
  std::vector<PerfPoint> frontier;
  /// Best affordable point at CPU budgets 1 ms, 2 ms, 4 ms, ... up to
  /// twice the slowest point.
  std::vector<RankingEntry> ranking;
};

/// Run every engine on `h` through run_engine, in order.  All specs must
/// share starts, seed and tolerance, with k = 2 and vcycles = 0 (the
/// identical multistart regime); a run_engine error aborts the report
/// with an error naming the engine.
ComparisonReport compare_engines(const Hypergraph& h,
                                 const std::vector<LabeledSpec>& engines,
                                 const ComparisonConfig& config);

}  // namespace vlsipart
