// Multilevel coarsening: heavy-edge matching.
//
// The "ML" engines of Table 1 and the hMetis-1.5 stand-in of Tables 4-5
// build a hierarchy of successively coarser hypergraphs [25][26].
// Vertices are visited in random order; each unmatched vertex pairs with
// the unmatched neighbor of highest heavy-edge rating
//     rating(u, v) = sum over shared nets e of  w(e) / (|e| - 1)
// subject to a maximum cluster weight, so a level at most halves the
// vertex count.  Fixed vertices are never clustered (they remain
// singletons so fixed constraints project losslessly through every
// level).
#pragma once

#include <functional>
#include <vector>

#include "src/hypergraph/contraction.h"
#include "src/hypergraph/hypergraph.h"
#include "src/util/rng.h"

namespace vlsipart {

struct CoarsenConfig {
  /// Stop when the coarsest level has at most this many vertices.
  std::size_t coarsen_to = 120;
  /// Abort coarsening when a level shrinks by less than this factor.
  double min_reduction = 0.95;
  /// Clusters never exceed this weight (0 = derive from total weight:
  /// cluster_weight_cap).
  Weight max_cluster_weight = 0;
  /// Nets larger than this do not contribute to ratings (huge clock-
  /// class nets carry no clustering signal and are expensive to scan).
  std::size_t max_rated_net_size = 64;
  /// Worker threads for coarsening.  1 = the serial random-order
  /// coarsener below (bit-identical to historical behavior); > 1 selects
  /// the two-phase rate/resolve coarsener (parallel_coarsen.h), whose
  /// hierarchy is identical for every thread count.  No command line
  /// sets it and run_engine rejects any value other than 1: it stays
  /// only for e2ebench's round-engine probe and the parallel tests.
  // det-lint: allow(knob-completeness)
  std::size_t coarsen_threads = 1;
};

struct CoarsenLevel {
  Hypergraph coarse;
  std::vector<VertexId> fine_to_coarse;
  /// Fixed side of each coarse vertex (build_levels projects it down;
  /// empty when the input has no fixed vertices).
  std::vector<PartId> fixed;
};

/// One clustering + contraction step.  `fixed` (may be empty) marks
/// vertices that must stay singletons; a non-empty `parts` restricts
/// merges to vertices of the same part — the restricted coarsening used
/// by V-cycling [25][26].  `memory` (optional) supplies reusable
/// contraction scratch so repeated coarsening (V-cycles, multistart ML)
/// stays allocation-free.  Leaves the level's `fixed` empty.
CoarsenLevel coarsen_once(const Hypergraph& h, const CoarsenConfig& config,
                          const std::vector<PartId>& fixed,
                          const std::vector<PartId>& parts, Rng& rng,
                          ContractionMemory* memory = nullptr);

/// Builds one level of `graph` whose fixed vertices and parts (each
/// empty or one entry per vertex) are `fixed` and `parts`.
using LevelBuilder = std::function<CoarsenLevel(
    const Hypergraph& graph, const std::vector<PartId>& fixed,
    const std::vector<PartId>& parts)>;

/// The hierarchy loop of both coarseners: build levels with
/// `build_level` until at most coarsen_to vertices remain or a level
/// shrinks by less than min_reduction (that level is dropped), pushing
/// fixed vertices (into each level's `fixed`) and a non-empty `parts`
/// down each kept level.  levels[0] maps the input graph to
/// levels[0].coarse, etc.
std::vector<CoarsenLevel> build_levels(const Hypergraph& h,
                                       const CoarsenConfig& config,
                                       const std::vector<PartId>& fixed,
                                       const std::vector<PartId>& parts,
                                       const LevelBuilder& build_level);

/// Full hierarchy of coarsen_once levels (build_levels' loop).
std::vector<CoarsenLevel> build_hierarchy(const Hypergraph& h,
                                          const CoarsenConfig& config,
                                          const std::vector<PartId>& fixed,
                                          const std::vector<PartId>& parts,
                                          Rng& rng,
                                          ContractionMemory* memory = nullptr);

}  // namespace vlsipart
