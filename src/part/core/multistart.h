// Independent-start harness.
//
// Runs a Bipartitioner N times from independent seeds and records, per
// start, the cut and CPU time — the raw material for the paper's
// min/average tables (Tables 1-3) and for the BSF/Pareto reporting of
// Sec. 3.2.  Start i always uses base_rng.fork(i), so any individual
// start is reproducible in isolation.
//
// run_multistart has one per-start body: start i is a pure function of
// (problem, engine config, base_rng.fork(i), i), passed to
// Bipartitioner::run_start with its index.  One worker runs that body
// inline on the caller's engine; more workers run it on private clones
// under dynamic scheduling.  Results are *bit-identical* at any thread
// count:
//   * records land in starts[i] by start index, never by completion order;
//   * best-start selection is the feasible start with the lowest cut,
//     ties broken by the lowest start index.
// Per-start cpu_seconds uses the *thread* CPU clock; wall_seconds is the
// harness wall-clock — the quantity parallelism improves.  See DESIGN.md
// ("Threading model").
//
// A CPU budget tau needs no harness of its own: the budgeted answer is
// the prefix of run_multistart's records whose accumulated CPU reaches
// tau, which observed_bsf_curve reads off directly (expected_bsf_curve
// gives the expected-cost version; both in src/eval/bsf.h).
#pragma once

#include <cstddef>
#include <vector>

#include "src/part/core/partitioner.h"
#include "src/util/stats.h"

namespace vlsipart {

struct StartRecord {
  Weight cut = 0;
  double cpu_seconds = 0.0;
  bool feasible = false;
};

struct MultistartResult {
  std::vector<StartRecord> starts;
  std::vector<PartId> best_parts;
  Weight best_cut = 0;
  /// Sum of per-start thread-CPU seconds — the paper's CPU-time axis;
  /// invariant (up to timer noise) under the thread count.
  double total_cpu_seconds = 0.0;
  /// Wall-clock of the whole harness call; shrinks with more threads.
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;
  /// Gain-update work summed over all starts (run_multistart only; the
  /// pruned regime leaves it zero).  Integer sums over a fixed start set,
  /// so thread-count-invariant like everything else here.
  UpdateWork update_work;

  Weight min_cut() const;
  double avg_cut() const;
  double avg_cpu_seconds() const;
  /// Retained sample of cuts for order-statistic math (BSF curves).
  Sample cut_sample() const;
  Sample time_sample() const;
};

/// Run `num_starts` independent starts on up to `num_threads` threads.
/// Each start's feasibility is audited with check_solution(); infeasible
/// results are recorded but never become best_parts.  With one worker
/// (min(num_threads, num_starts) <= 1) the starts run inline on
/// `partitioner`; otherwise each worker runs them on its own clone().
MultistartResult run_multistart(const PartitionProblem& problem,
                                Bipartitioner& partitioner,
                                std::size_t num_starts, std::uint64_t seed,
                                std::size_t num_threads = 1);

/// Start pruning (Sec. 3.2): "pruning (early termination of starts that
/// appear unpromising relative to previous starts) can be applied".
/// A start is abandoned after its first FM pass if that pass's cut
/// exceeds `factor` times the best first-pass cut seen so far.
struct PruneConfig {
  double factor = 1.10;
};

struct PrunedMultistartResult {
  MultistartResult result;
  std::size_t pruned_starts = 0;
  /// CPU spent on starts that were pruned (the saved work is the
  /// difference against an unpruned run).
  double pruned_cpu_seconds = 0.0;
};

/// Pruned multistart of the flat FM engine.  Pruned starts are recorded
/// in result.starts with the cut they had when abandoned (marked
/// infeasible so they never become best_parts), mirroring how a
/// practical implementation would discard them.  Starts run serially,
/// and start i is judged against the first passes of starts 0..i-1.
PrunedMultistartResult run_multistart_pruned(const PartitionProblem& problem,
                                             const FmConfig& config,
                                             std::size_t num_starts,
                                             std::uint64_t seed,
                                             const PruneConfig& prune);

}  // namespace vlsipart
