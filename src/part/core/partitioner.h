// Abstract bipartitioner interface and the flat FM implementation.
//
// A Bipartitioner is a single-start heuristic: given a problem and a
// seeded Rng, it produces one feasible assignment.  Multistart regimes,
// BSF curves and Pareto comparisons (Sec. 3.2) are all built on top of
// this interface by the multistart harness and the eval library, so flat
// FM, CLIP FM and the multilevel engine are compared "apples to apples".
#pragma once

#include <memory>
#include <vector>

#include "src/part/core/fm_config.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {

class Bipartitioner {
 public:
  virtual ~Bipartitioner() = default;

  /// Run one start: generate (or refine) an assignment into `parts`.
  /// Returns the achieved cut.  Deterministic given the Rng state.
  virtual Weight run(const PartitionProblem& problem, Rng& rng,
                     std::vector<PartId>& parts) = 0;

  /// Like run(), but with the multistart start index made explicit.
  /// Engines whose behavior depends on how many starts they have served
  /// (e.g. InitialScheme::kMixed alternation) must key that behavior on
  /// `start_index` here, so a parallel harness executing starts out of
  /// order reproduces the serial schedule bit-for-bit.  Default ignores
  /// the index and forwards to run().
  virtual Weight run_start(const PartitionProblem& problem, Rng& rng,
                           std::vector<PartId>& parts,
                           std::size_t start_index) {
    (void)start_index;
    return run(problem, rng, parts);
  }

  /// Fresh engine with identical configuration, for use as a private
  /// per-worker instance in parallel multistart.
  virtual std::unique_ptr<Bipartitioner> clone() const = 0;

  /// Cumulative gain-update work over every refine() this engine has
  /// performed (all starts, all levels).  Engines that do not track work
  /// report zeros; harnesses surface the counters as a skip-rate column.
  virtual UpdateWork update_work() const { return {}; }
};

/// Flat (single-level) FM or CLIP partitioner: an initial solution from
/// config.initial_scheme + FM refinement with the configured implicit
/// decisions.
///
/// The partition state and FM refiner (gain container, lock vector, move
/// buffers) are allocated on first run and reused across starts on the
/// same problem, so a multistart loop pays the allocation cost once
/// instead of once per start.
class FlatFmPartitioner final : public Bipartitioner {
 public:
  explicit FlatFmPartitioner(FmConfig config);

  Weight run(const PartitionProblem& problem, Rng& rng,
             std::vector<PartId>& parts) override;
  Weight run_start(const PartitionProblem& problem, Rng& rng,
                   std::vector<PartId>& parts,
                   std::size_t start_index) override;
  std::unique_ptr<Bipartitioner> clone() const override;

  UpdateWork update_work() const override { return work_; }

  const FmConfig& config() const { return config_; }

 private:
  FmConfig config_;
  UpdateWork work_;
  std::size_t run_index_ = 0;
  /// Reusable scratch, bound to the problem of the most recent run.  The
  /// refiner only captures graph-derived sizes at construction and reads
  /// balance/fixed through the problem pointer, so rebinding is needed
  /// exactly when the problem object (or its graph) changes.
  const PartitionProblem* bound_problem_ = nullptr;
  const Hypergraph* bound_graph_ = nullptr;
  std::unique_ptr<PartitionState> state_;
  std::unique_ptr<FmRefiner> refiner_;
};

}  // namespace vlsipart
