// Multilevel FM bipartitioner with V-cycling — the "ML LIFO FM" /
// "ML CLIP FM" engines of Table 1 and the hMetis-1.5-like engine
// evaluated in Tables 4-5 (see DESIGN.md for the substitution note).
//
// Pipeline per start:
//   1. coarsen:   heavy-edge matching to ~coarsen_to vertices
//                 (coarsen.h);
//   2. initial:   eight solutions of the coarsest graph from
//                 refine.initial_scheme, each FM-refined; keep the best
//                 (best_of_initial_tries, shared with n-level);
//   3. uncoarsen: project each level up and FM-refine with the
//                 configured (LIFO or CLIP) flat engine.
//
// vcycle() implements the refinement trick of hMetis [25][26]: take an
// existing solution, re-coarsen *respecting its parts*, and re-run the
// uncoarsening refinement.  The harness function run_hmetis_like()
// reproduces the paper's evaluation protocol: N starts, then V-cycle the
// best result among them ("hMetis-1.5 will V-cycle the best result among
// these starts", Sec. 3.2).
#pragma once

#include <vector>

#include "src/part/core/multistart.h"
#include "src/part/core/partitioner.h"
#include "src/part/ml/coarsen.h"
#include "src/util/thread_pool.h"

namespace vlsipart {

struct MlConfig {
  CoarsenConfig coarsen;
  /// FM policy used at every level (CLIP toggles "ML CLIP" vs "ML LIFO");
  /// its initial_scheme generates the coarsest-level tries.
  FmConfig refine;
  /// V-cycles applied at the end of each start (0 = plain multilevel;
  /// the hMetis-like harness V-cycles only the best of N starts instead).
  std::size_t vcycles = 0;
};

class MlPartitioner final : public Bipartitioner {
 public:
  explicit MlPartitioner(MlConfig config);

  Weight run(const PartitionProblem& problem, Rng& rng,
             std::vector<PartId>& parts) override;
  /// The engine carries only reusable scratch and work counters across
  /// runs (no solution state), so a clone is just a fresh instance of the
  /// same configuration (enables parallel multistart).
  std::unique_ptr<Bipartitioner> clone() const override;

  /// One V-cycle: restricted coarsening around `parts`, then refinement.
  /// Returns the (never worse) cut.
  Weight vcycle(const PartitionProblem& problem, Rng& rng,
                std::vector<PartId>& parts);

  /// Recombination V-cycle (memetic engine): like vcycle(), but the
  /// restricted coarsening clusters only vertices with EQUAL labels in
  /// `guide` rather than equal parts.  The memetic recombination
  /// operator passes guide[v] = 2*p1[v] + p2[v] (the two parents'
  /// agreement classes), so clustering respects both parents at once.
  /// `guide` must REFINE `parts` — vertices sharing a guide label share
  /// a part — or the downward projection would be ill-defined; this is
  /// checked.  Accepts the result only when feasible and not worse.
  Weight vcycle_guided(const PartitionProblem& problem, Rng& rng,
                       std::vector<PartId>& parts,
                       const std::vector<PartId>& guide);

  UpdateWork update_work() const override { return work_; }

  const MlConfig& config() const { return config_; }

 private:
  /// Core multilevel descent: builds a hierarchy (optionally respecting
  /// `parts` when restricted), solves/adopts the coarsest solution, and
  /// refines on the way up.  When restricted, `cluster_guide` (if
  /// non-null) replaces `parts` as the label vector the coarsening
  /// respects; it must refine `parts`.
  Weight run_internal(const PartitionProblem& problem, Rng& rng,
                      std::vector<PartId>& parts, bool restricted,
                      const std::vector<PartId>* cluster_guide = nullptr);

  /// The accept step of both V-cycles: run_internal restricted to
  /// `parts` (clustering by `guide` when non-null) on a copy, adopted
  /// only when feasible and not worse.  Returns the kept cut.
  Weight restricted_cycle(const PartitionProblem& problem, Rng& rng,
                          std::vector<PartId>& parts,
                          const std::vector<PartId>* guide);

  /// Lazily created owned pool, sized max(refine_threads,
  /// coarsen_threads); nullptr while both knobs are 1.  Owned (not
  /// shared) so cloned engines in parallel multistart get private
  /// workers.
  ThreadPool* acquire_pool();

  MlConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  /// Gain-update work accumulated over every refine at every level.
  UpdateWork work_;
  /// Reusable contraction scratch shared by all hierarchies this engine
  /// builds (runs, V-cycles).  Cloned engines get fresh scratch, so the
  /// parallel multistart invariant (one engine per worker) keeps this
  /// single-threaded.
  ContractionMemory contraction_memory_;
};

/// The paper's hMetis evaluation protocol (Sec. 3.2): run `num_starts`
/// independent ML starts, keep the best, then V-cycle it `vcycles_on_best`
/// times.  Returns the multistart record with best_parts/best_cut updated
/// by the trailing V-cycles and total CPU including them.  The starts run
/// on `num_threads` workers (the trailing V-cycles are inherently serial).
MultistartResult run_hmetis_like(const PartitionProblem& problem,
                                 MlPartitioner& partitioner,
                                 std::size_t num_starts,
                                 std::size_t vcycles_on_best,
                                 std::uint64_t seed,
                                 std::size_t num_threads = 1);

}  // namespace vlsipart
