// Deterministic parallel heavy-edge coarsening.
//
// The serial coarsener (coarsen.h) matches vertices sequentially in a
// random visit order — each decision sees the pairs its predecessors
// formed, so it cannot be parallelized without changing results.  This
// coarsener restructures the level into two phases with a barrier:
//
//   1. RATE (parallel) — every vertex v independently computes its
//      preferred partner pref[v]: the neighbor with the highest
//      heavy-edge rating sum(w(e) / (|e|-1)) over shared nets no larger
//      than max_rated_net_size, ties to the lowest id, restricted to
//      partners whose pair weight fits max_cluster_weight (and, when
//      `parts` is non-empty, the same part).  Preferences read only the
//      immutable fine graph, so vertex-range shards race on nothing and
//      pref[] is a pure function of the graph — independent of the
//      shard count.
//   2. RESOLVE (serial, order-independent) — exactly the mutual pairs
//      (pref[v] == u && pref[u] == v) merge, lowest id leading.  pref is
//      a function, so mutual pairs are disjoint — no resolution order
//      exists to matter.
//
// Both phases are deterministic at any thread count, which is what lets
// the ML pipeline use this level builder under the same bit-identity
// tests as the parallel refiner.  Note the result intentionally differs
// from the serial coarsener's (no random visit order, mutual
// preferences rather than greedy matching): coarsen_threads=1 in MlConfig selects the
// serial path, > 1 selects this one.
#pragma once

#include "src/part/ml/coarsen.h"
#include "src/util/thread_pool.h"

namespace vlsipart {

/// One parallel clustering + contraction step; the deterministic
/// counterpart of coarsen_once (no Rng: nothing is randomized).  `pool`
/// may be null (runs inline, same result).
CoarsenLevel parallel_coarsen_once(const Hypergraph& h,
                                   const CoarsenConfig& config,
                                   const std::vector<PartId>& fixed,
                                   const std::vector<PartId>& parts,
                                   ThreadPool* pool,
                                   ContractionMemory* memory = nullptr);

/// Full hierarchy of parallel_coarsen_once levels (build_levels' loop).
std::vector<CoarsenLevel> parallel_build_hierarchy(
    const Hypergraph& h, const CoarsenConfig& config,
    const std::vector<PartId>& fixed, const std::vector<PartId>& parts,
    ThreadPool* pool, ContractionMemory* memory = nullptr);

}  // namespace vlsipart
