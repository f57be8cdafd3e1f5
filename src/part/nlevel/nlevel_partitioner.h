// n-level bipartitioner (arXiv 1505.00693 made to fit this testbed):
// contract exactly ONE vertex per level with a heavy-edge priority queue,
// solve the coarsest graph with the configured FM engine, then uncontract
// one vertex at a time, running a LOCALIZED FM search after every
// uncontraction that seeds the gain buckets only from the uncontracted
// pair and grows the frontier through touched nets.
//
// Compared with the multilevel engine (src/part/ml), the hierarchy is as
// fine-grained as it can be: every intermediate size between n and the
// coarsest level exists, so refinement acts at every granularity.  The
// price is paid in data-structure dynamics, not graph rebuilds: the
// NlevelGraph undo log makes each uncontraction O(degree of the split
// vertex), and the localized searches ride the same BucketArray kernel
// as the flat refiner (sparse reset, so a search touching t vertices
// costs O(t), not O(n)).  After each flip the search updates neighbour
// keys with the flat FM pass's per-net delta (net_gain_delta), O(1) per
// visited pin, instead of recomputing each neighbour's whole gain.
//
// Determinism: a run is a pure function of (problem, config, rng state).
// The contraction order comes from a lazily re-rated max-heap ordered by
// (rating desc, id asc); ratings accumulate in incidence order; localized
// selection scans buckets from the max key down, head first.  No step
// consults iteration order of any unordered container, thread timing, or
// addresses, so multistart parallelism over clones is bit-identical at
// any thread count (the same argument as every other engine here).
#pragma once

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/hypergraph/contraction.h"
#include "src/part/core/bucket_array.h"
#include "src/part/core/fm_refiner.h"
#include "src/part/core/initial.h"
#include "src/part/core/partitioner.h"
#include "src/part/nlevel/nlevel_graph.h"

namespace vlsipart {

struct NlevelConfig {
  /// Stop contracting when this many clusters remain (the coarsest graph
  /// handed to the initial-solution FM).
  std::size_t coarsen_to = 96;
  /// Clusters never exceed this weight (0 = derive from total weight,
  /// same rule as CoarsenConfig).
  Weight max_cluster_weight = 0;
  /// Nets larger than this contribute nothing to heavy-edge ratings.
  std::size_t max_rated_net_size = 64;
  /// Initial solutions tried at the coarsest level (best feasible kept).
  std::size_t initial_tries = 8;
  /// Generator for those tries.
  InitialScheme initial_scheme = InitialScheme::kRandom;
  /// A localized search stops after this many consecutive non-improving
  /// moves (the adaptive stop of n-level refinement), then rolls back to
  /// the best prefix.
  std::size_t local_moves_past_best = 16;
  /// Run one full flat-FM refine on the final (fully uncontracted)
  /// assignment.  The localized searches only ever see boundary
  /// neighborhoods; the final sweep catches cross-cut moves they missed.
  bool final_refine = true;
  /// FM policy for the coarsest solve and the final sweep.  The n-level
  /// phase itself is serial by construction (refine_threads is ignored
  /// inside a start; parallelism comes from multistart over clones).
  FmConfig refine;
};

class NlevelPartitioner final : public Bipartitioner {
 public:
  explicit NlevelPartitioner(NlevelConfig config, std::string name = {});

  std::string name() const override { return name_; }
  Weight run(const PartitionProblem& problem, Rng& rng,
             std::vector<PartId>& parts) override;
  /// Reusable scratch only, no solution state: a clone is a fresh
  /// instance of the same configuration (enables parallel multistart).
  std::unique_ptr<Bipartitioner> clone() const override;
  /// Gain-update work, in the flat FM pass's meaning: the FM solves of
  /// the coarsest graph and the final sweep add their own counters, and
  /// each local-search walk adds, per flipped cluster,
  ///   nets_walked            one per incident net (every net's pins
  ///                          are walked: each visit re-heads its pin);
  ///   nonzero_delta_updates  visits whose per-net delta was nonzero;
  ///   zero_delta_updates     visits whose delta was zero, including
  ///                          clusters activated earlier in the walk.
  /// nets_skipped_noncritical stays with the FM solves.  Deterministic:
  /// identical across repeated runs and multistart thread counts.
  UpdateWork update_work() const override { return work_; }

  const NlevelConfig& config() const { return config_; }

 private:
  /// Heavy-edge rating of u against every active neighbor; returns the
  /// best admissible partner (highest rating, ties to the lowest id) or
  /// kInvalidVertex.  `rating_out` receives the winning rating.
  VertexId best_partner(VertexId u, Weight max_cw,
                        const std::vector<PartId>& fixed, double* rating_out);

  /// Contract down to config_.coarsen_to clusters (or until no
  /// admissible pair remains) using the lazy max-heap.
  void coarsen(const PartitionProblem& problem, Weight max_cw);

  /// Solve the coarsest graph: materialize it through contract(), try
  /// initial_tries FM-refined starts, write the winner into side_.
  void solve_coarsest(const PartitionProblem& problem, Rng& rng);

  Gain cluster_gain(VertexId c) const;
  bool movable(const PartitionProblem& problem, VertexId c) const;
  /// Flip c to the other side, maintaining pins_side_/part_weight_/cut_.
  void flip(VertexId c);
  /// One localized FM search seeded from the freshly uncontracted pair.
  void local_search(const PartitionProblem& problem, VertexId u, VertexId v);
  /// Audit oracle of the delta-gain walk: every cluster still in the
  /// buckets must be keyed with its from-scratch cluster_gain().
  void audit_keys() const;

  NlevelConfig config_;
  std::string name_;
  UpdateWork work_;
  NlevelGraph graph_;
  ContractionMemory contraction_memory_;

  // Coarsening scratch.
  std::vector<double> rating_;
  std::vector<VertexId> rated_;

  // Uncontraction/refinement state at cluster granularity.
  std::vector<PartId> side_;
  std::vector<std::uint32_t> pins_side_;
  Weight part_weight_[2] = {0, 0};
  Weight cut_ = 0;
  std::unique_ptr<BucketArray<2>> buckets_;
  std::size_t bucket_n_ = 0;
  std::vector<std::uint32_t> locked_epoch_;
  std::uint32_t epoch_ = 0;
  /// Clusters pushed into the buckets by the current search, in order;
  /// activated_at_[c] is c's index there (valid while c is contained).
  std::vector<VertexId> activated_;
  std::vector<std::size_t> activated_at_;
  /// config_.refine.audit resolved against VLSIPART_AUDIT per run().
  AuditConfig audit_;
  std::vector<EdgeId> reactivated_;
  struct LocalMove {
    VertexId c = 0;
  };
  std::vector<LocalMove> local_moves_;
  std::vector<VertexId> cluster_scratch_;
};

}  // namespace vlsipart
