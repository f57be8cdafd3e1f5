// k-way partitioning by recursive bisection.
//
// The paper restricts its experiments to 2-way FM but names "the
// difficulty of multi-way partitioning" as one of two "fundamental gaps
// in knowledge" (Sec. 4).  This module provides the standard top-down
// answer: recursively bisect with the 2-way engines, splitting k into
// floor(k/2)/ceil(k/2) subtrees with capacity-proportional balance at
// each level — the same decomposition top-down placement uses.
//
// k-way cut is counted as the number (weighted sum) of nets spanning
// two or more of the k parts, matching the paper's cut-size objective.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/part/ml/ml_partitioner.h"

namespace vlsipart {

struct KwayConfig {
  std::size_t k = 4;
  /// Per-part weight tolerance: each part must weigh within
  /// (1 +- tolerance/2) * (its capacity share of total).
  double tolerance = 0.10;
  /// Engine for each bisection: ML when true (default), flat FM when
  /// false.
  bool use_ml = true;
  FmConfig fm;       ///< flat policy (also the ML refinement policy)
  MlConfig ml;       ///< ML settings (refine is overwritten with `fm`)
  std::size_t starts_per_level = 2;
  std::uint64_t seed = 1;
  /// Direct k-way FM polish passes applied after the recursive
  /// decomposition (0 = RB result as-is).  RB fixes the block hierarchy
  /// top-down; direct k-way passes can move vertices between cousin
  /// blocks and typically recover a few percent of cut.
  int refine_passes = 2;
  /// Thread budget.  Each bisection's run_multistart uses it, and a
  /// split runs its two subtrees concurrently with the budget halved, so
  /// at most `threads` threads work at once.  The answer is
  /// bit-identical for every value: a subtree is a pure function of its
  /// cells and seed, and subtrees write disjoint parts entries.
  std::size_t threads = 1;
};

struct KwayResult {
  /// parts[v] in [0, k).
  std::vector<PartId> parts;
  /// Nets spanning >= 2 parts (weighted).
  Weight cut = 0;
  /// Per-part total vertex weight.
  std::vector<Weight> part_weights;
  /// Bisections performed.
  std::size_t bisections = 0;
};

/// Partition into k parts (2 <= k <= 128).
KwayResult recursive_bisection(const Hypergraph& h, const KwayConfig& config);

/// k-way cut of an assignment: weighted count of nets with pins in two
/// or more distinct parts.
Weight kway_cut(const Hypergraph& h, const std::vector<PartId>& parts);

/// Empty string if every part weight is within the per-part tolerance
/// band and every vertex has a part < k; else a violation description.
std::string check_kway(const Hypergraph& h, const std::vector<PartId>& parts,
                       std::size_t k, double tolerance);

}  // namespace vlsipart
