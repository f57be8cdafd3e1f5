// Memetic (evolutionary multilevel) bipartitioner, following the
// recipe of KaHyPar-E (arXiv 1710.01968) scaled to this testbed: keep a
// small population of full solutions, produce offspring by RECOMBINING
// two parents through a V-cycle whose restricted coarsening respects the
// agreement classes of both (guide[v] = 2*p1[v] + p2[v], passed as the
// coarsener's parts), diversify with MUTATION as a perturbed
// V-cycle, and replace with strict elitism (parents and offspring ranked
// together, best `population` survive).
//
// Determinism at any thread count is the headline property and is
// enforced by ctest (evo_test.cpp):
//   * every stochastic decision of generation g's offspring j draws from
//     rng.fork(population + g*kOffspring + j) — a child stream fixed
//     before the parallel section starts, independent of scheduling;
//   * parent selection ranks a SNAPSHOT of the population by the total
//     order (feasible-first, cut, imbalance, id) — ids break every tie,
//     so the ranking never depends on sort stability or memory layout;
//   * each worker owns a private MlPartitioner clone, and those engines
//     carry only scratch + work counters across runs (no solution
//     state), so WHICH worker serves an offspring cannot change the
//     offspring.  Only the work-counter summation order varies with the
//     schedule, and integer sums commute.
#pragma once

#include <memory>
#include <vector>

#include "src/part/core/partitioner.h"
#include "src/part/ml/ml_partitioner.h"
#include "src/util/thread_pool.h"

namespace vlsipart {

struct EvoConfig {
  /// Individuals kept between generations (each seeded by one full ML
  /// start before the first generation).
  std::size_t population = 6;
  /// Generations of offspring + elitist replacement after seeding.
  std::size_t generations = 8;
  /// Multilevel engine used for seeding and for every V-cycle.
  MlConfig ml;
};

class EvoPartitioner final : public Bipartitioner {
 public:
  /// `threads` workers run the seeding and each generation's offspring.
  /// The result is bit-identical for every value (see header comment).
  explicit EvoPartitioner(EvoConfig config, std::size_t threads = 1);

  Weight run(const PartitionProblem& problem, Rng& rng,
             std::vector<PartId>& parts) override;
  /// Engines and pool are reusable scratch; a clone is a fresh instance
  /// of the same configuration (enables parallel multistart on top).
  std::unique_ptr<Bipartitioner> clone() const override;
  /// Sum over all per-worker ML engines.
  UpdateWork update_work() const override;

  const EvoConfig& config() const { return config_; }

 private:
  struct Individual {
    std::vector<PartId> parts;
    Weight cut = 0;
    /// Total balance violation (0 when feasible); ranks infeasible
    /// individuals behind every feasible one.
    Weight excess = 0;
    /// Creation ticket: seeds get 0..population-1, offspring continue
    /// the count in spec order.  Final tie-breaker of the rank order.
    std::uint64_t id = 0;
  };

  /// The total rank order: feasible before infeasible, then lower cut,
  /// lower excess, lower id.
  static bool rank_less(const Individual& a, const Individual& b);

  /// Private engine of worker slot w (created on first use).
  MlPartitioner* engine(std::size_t worker);
  ThreadPool* acquire_pool();
  void evaluate(const PartitionProblem& problem, Individual& ind) const;

  EvoConfig config_;
  std::size_t threads_;
  std::vector<std::unique_ptr<MlPartitioner>> engines_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace vlsipart
