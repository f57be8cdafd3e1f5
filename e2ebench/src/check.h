// Independent result checks applied to every op the benchmark runs.
//
// Each check recounts the cut from the raw assignment with the
// benchmark's own net walk, which shares no code with the library, and
// then runs the library's own audit inside the traced span core.check:
// check_solution (part range, fixed vertices, balance window, and the
// claimed cut against compute_cut, the from-scratch count cut_size() in
// src/eval/objectives forwards to) or check_kway (part range and the
// k-way weight band).  None of it reads an engine's incremental state
// (PartitionState, KwayState), so a drift in that bookkeeping shows up
// as a mismatch.
//
// A check returns an empty string when the result is correct, else a
// description of the first violation; a non-empty answer makes the op a
// failed op.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/part/core/partition_state.h"

namespace e2ebench {

using vlsipart::Hypergraph;
using vlsipart::PartId;
using vlsipart::PartitionProblem;
using vlsipart::Weight;

/// Weighted count of nets with pins in two or more distinct parts, by the
/// benchmark's own walk over the pins.
Weight recount_cut(const Hypergraph& h, const std::vector<PartId>& parts);

/// 2-way result: the claimed cut equal to the recount, then
/// check_solution with the claimed cut.
std::string check_bipartition(const PartitionProblem& problem,
                              const std::vector<PartId>& parts,
                              Weight claimed_cut);

/// k-way result: the claimed cut equal to the recount, then check_kway.
std::string check_kway_partition(const Hypergraph& h,
                                 const std::vector<PartId>& parts,
                                 std::size_t k, double tolerance,
                                 Weight claimed_cut);

}  // namespace e2ebench
